package dataset_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

// FuzzReadLG feeds ReadLG bytes it did not write. Whatever the input, it must
// return a graph or an error and never panic, and a graph it returns must
// survive WriteLG and a second ReadLG unchanged. The seeds are every figure
// as WriteLG writes it and a few hand-made streams: comments, an edge label,
// and the malformed records ReadLG rejects.
func FuzzReadLG(f *testing.F) {
	for _, fig := range dataset.AllFigures() {
		var buf bytes.Buffer
		if err := dataset.WriteLG(&buf, fig.Graph); err != nil {
			f.Fatalf("%s: WriteLG: %v", fig.Name, err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range []string{
		"",
		"# only a comment\n",
		"t # demo\nv 0 1\nv 1 2\ne 0 1 7\n",
		"v 0 1\nv 0 2\n",
		"v 0 1\ne 0 0\n",
		"v 0 1\nv 1 1\ne 0 1\ne 1 0\n",
		"v -3 1\nv 9223372036854775807 -1\ne -3 9223372036854775807\n",
		"v 0\ne 0\nx 1 2\n",
		"t\r\nv\t0\t1\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := dataset.ReadLG(bytes.NewReader(data), "fuzz")
		if err != nil {
			if g != nil {
				t.Fatalf("ReadLG returned a graph and the error %v", err)
			}
			return
		}
		if g == nil {
			t.Fatal("ReadLG returned neither a graph nor an error")
		}
		var buf bytes.Buffer
		if err := dataset.WriteLG(&buf, g); err != nil {
			t.Fatalf("WriteLG: %v", err)
		}
		back, err := dataset.ReadLG(&buf, "fuzz")
		if err != nil {
			t.Fatalf("ReadLG of WriteLG's output: %v\n%s", err, buf.Bytes())
		}
		if !g.Equal(back) {
			t.Fatalf("the graph changed through WriteLG and ReadLG:\n%s", buf.Bytes())
		}
	})
}
