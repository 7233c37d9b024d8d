package core

// ListedOccurrences reports whether c has expanded its instance rank tuples
// into an occurrence list: its Instances() or its Occurrences().
func ListedOccurrences(c *Context) bool {
	return c.mat != nil && (c.mat.instances != nil || c.mat.occurrences != nil)
}
