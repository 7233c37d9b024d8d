// Package cliflags is the one place the g* command-line tools declare their
// shared engine-facing flags. gsupport, gminer and gserved speak the same
// knobs — enumeration parallelism, snapshot sharding, the out-of-core store
// pair (-store, -residency), -explain and -trace (which gbench shares) — and
// the two that evaluate single patterns add streaming evaluation, which
// mining has no use for (the miner picks streamed or materialized contexts
// from the measure). Register installs the requested flag families on a
// FlagSet and EngineOptions maps the parsed values onto
// support.EngineOptions, so a new tool gets the full serving configuration
// for free.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"os"

	support "repro"
	"repro/internal/obs"
)

// Group selects one family of shared flags for Register.
type Group int

// The flag families a tool can request.
const (
	// Enum installs -parallel, the enumeration worker count.
	Enum Group = iota
	// Streaming installs -streaming, evaluation on streamed aggregates.
	Streaming
	// Shards installs -shards, the CSR snapshot shard count.
	Shards
	// Store installs the out-of-core pair -store and -residency.
	Store
	// Explain installs -explain, the search-plan printing switch.
	Explain
	// Trace installs -trace, the per-request span-tree printing switch.
	Trace
)

// Flags holds the parsed values of the shared flags a tool registered.
// Accessors of unregistered families return zero values, so one code path
// serves every tool regardless of which families it asked for.
type Flags struct {
	parallel  *int
	shards    *int
	streaming *bool
	store     *string
	residency *string
	explain   *bool
	trace     *bool
}

// Register installs the requested flag families on fs (every family when
// none are named) and returns the holder to read after fs.Parse.
func Register(fs *flag.FlagSet, groups ...Group) *Flags {
	if len(groups) == 0 {
		groups = []Group{Enum, Streaming, Shards, Store, Explain, Trace}
	}
	f := &Flags{}
	for _, g := range groups {
		switch g {
		case Enum:
			f.parallel = fs.Int("parallel", 0, "enumeration worker count (0 = GOMAXPROCS, 1 = sequential)")
		case Streaming:
			f.streaming = fs.Bool("streaming", false, "evaluate on streamed aggregates instead of materialized occurrences (MNI and the raw counts only)")
		case Shards:
			f.shards = fs.Int("shards", 0, "CSR snapshot shard count (0 = auto: one shard up to 65536 vertices)")
		case Store:
			f.store = fs.String("store", "", "mmap an out-of-core shard store directory (written by ggen -store) as the data source")
			f.residency = fs.String("residency", "", "residency byte budget for -store paging: bytes, binary sizes (64MiB) or a percentage of the store (25%); empty = unlimited")
		case Explain:
			f.explain = fs.Bool("explain", false, "print the enumeration engine's search plan (order, per-depth candidate estimates, kernels)")
		case Trace:
			f.trace = fs.Bool("trace", false, "print the per-request span tree (phase timings) to stderr after each request")
		}
	}
	return f
}

// EngineOptions maps the parsed flags onto the unified engine options. Flag
// families the tool did not register contribute their zero values.
func (f *Flags) EngineOptions() support.EngineOptions {
	var o support.EngineOptions
	if f.parallel != nil {
		o.Parallelism = *f.parallel
	}
	if f.shards != nil {
		o.Shards = *f.shards
	}
	if f.streaming != nil {
		o.Streaming = *f.streaming
	}
	if f.residency != nil {
		o.ResidencyBudget = *f.residency
	}
	return o
}

// Streaming returns the -streaming value (false when unregistered).
func (f *Flags) Streaming() bool {
	if f.streaming == nil {
		return false
	}
	return *f.streaming
}

// StorePath returns the -store directory ("" when unset or unregistered).
func (f *Flags) StorePath() string {
	if f.store == nil {
		return ""
	}
	return *f.store
}

// Explain returns the -explain value (false when unregistered).
func (f *Flags) Explain() bool {
	if f.explain == nil {
		return false
	}
	return *f.explain
}

// Trace returns the -trace value (false when unregistered).
func (f *Flags) Trace() bool {
	if f.trace == nil {
		return false
	}
	return *f.trace
}

// Do runs one engine request, honoring -trace: with it set, an obs.Trace is
// attached to the request context and the finished span tree — per-phase
// timings of plan, enumerate, aggregate or mine — is printed to stderr. This
// is the one request path the g* CLIs share.
func (f *Flags) Do(eng *support.Engine, req *support.Request) (*support.Response, error) {
	if !f.Trace() {
		return eng.Do(req)
	}
	tr := obs.NewTrace("request")
	resp, err := eng.DoContext(obs.ContextWithTrace(context.Background(), tr), req)
	tr.Finish()
	fmt.Fprint(os.Stderr, tr.String())
	return resp, err
}

// Engine opens the engine for the tool's resolved data source: the mmapped
// -store directory when one was given, otherwise the graph returned by
// loadGraph. This is the one constructor path every g* tool shares.
func (f *Flags) Engine(loadGraph func() (*support.Graph, error)) (*support.Engine, error) {
	if dir := f.StorePath(); dir != "" {
		return support.OpenStoreEngine(dir, f.EngineOptions())
	}
	g, err := loadGraph()
	if err != nil {
		return nil, err
	}
	return support.NewEngine(g, f.EngineOptions())
}
