package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// The .lg format is the plain-text single-graph format popularized by GraMi
// and gSpan-style tools:
//
//	# optional comment lines
//	t # <graph-name>
//	v <vertex-id> <label>
//	e <vertex-id> <vertex-id>
//
// Vertex IDs are non-negative integers; labels are integers. An optional
// third field on "e" lines (an edge label) is accepted and ignored, since the
// paper's model is vertex-labeled only.

// ReadLG parses a graph in .lg format from r. The name argument is used when
// the stream has no "t" header.
func ReadLG(r io.Reader, name string) (*graph.Graph, error) {
	g := graph.New(name)
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "t":
			// "t # name" header; take the last field as the name if present.
			if len(fields) >= 3 {
				g.SetName(fields[len(fields)-1])
			}
		case "v":
			if len(fields) < 3 {
				return nil, fmt.Errorf("dataset: line %d: vertex line needs id and label: %q", lineNo, line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad vertex id %q: %w", lineNo, fields[1], err)
			}
			label, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad vertex label %q: %w", lineNo, fields[2], err)
			}
			if err := g.AddVertex(graph.VertexID(id), graph.Label(label)); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
		case "e":
			if len(fields) < 3 {
				return nil, fmt.Errorf("dataset: line %d: edge line needs two endpoints: %q", lineNo, line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad edge endpoint %q: %w", lineNo, fields[1], err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad edge endpoint %q: %w", lineNo, fields[2], err)
			}
			if err := g.AddEdge(graph.VertexID(u), graph.VertexID(v)); err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("dataset: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading .lg stream: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteLG writes g in .lg format to w. Vertices are written in sorted ID
// order and edges in normalized sorted order, so output is deterministic.
func WriteLG(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "t # %s\n", g.Name()); err != nil {
		return err
	}
	for _, v := range g.SortedVertices() {
		label := g.MustLabelOf(v)
		if _, err := fmt.Fprintf(bw, "v %d %d\n", v, label); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "e %d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadLGFile reads a .lg graph from the file at path.
func LoadLGFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", path, err)
	}
	defer f.Close()
	return ReadLG(f, strings.TrimSuffix(path, ".lg"))
}

// SaveLGFile writes g to the file at path in .lg format, creating or
// truncating it.
func SaveLGFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: creating %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteLG(f, g); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", path, err)
	}
	return f.Close()
}
