package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Config controls how experiments are run.
type Config struct {
	// Quick shrinks parameter sweeps so the whole suite finishes in seconds;
	// used by unit tests and -short benchmarks. The full sweeps are what
	// cmd/gbench runs by default.
	Quick bool
	// Seed is the base PRNG seed for generated workloads.
	Seed uint64
	// CSV selects CSV output instead of aligned text.
	CSV bool
}

// Experiment is one reproducible experiment of the paper-reproduction suite.
type Experiment struct {
	// ID is the experiment identifier (e.g. "chain", "figures").
	ID string
	// Claim is the paper claim or artefact the experiment reproduces.
	Claim string
	// Run executes the experiment and writes its tables to w.
	Run func(w io.Writer, cfg Config) error
}

// Registry holds all known experiments.
type Registry struct {
	byID map[string]Experiment
}

// NewRegistry returns a registry containing every experiment in this package.
func NewRegistry() *Registry {
	r := &Registry{byID: make(map[string]Experiment)}
	for _, e := range allExperiments() {
		r.byID[e.ID] = e
	}
	return r
}

// Get returns the experiment with the given ID.
func (r *Registry) Get(id string) (Experiment, error) {
	e, ok := r.byID[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, r.IDs())
	}
	return e, nil
}

// IDs returns the registered experiment IDs in sorted order.
func (r *Registry) IDs() []string {
	out := make([]string, 0, len(r.byID))
	for id := range r.byID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunAll executes every experiment in ID order.
func (r *Registry) RunAll(w io.Writer, cfg Config) error {
	return r.RunAllTraced(w, cfg, nil)
}

// RunAllTraced is RunAll with one span per experiment recorded under the
// trace's root, so gbench -trace reports where suite wall-clock went. A nil
// trace records nothing (spans are nil-safe) and behaves exactly like
// RunAll.
func (r *Registry) RunAllTraced(w io.Writer, cfg Config, tr *obs.Trace) error {
	for _, id := range r.IDs() {
		e := r.byID[id]
		if _, err := fmt.Fprintf(w, "### experiment %s — %s\n\n", e.ID, e.Claim); err != nil {
			return err
		}
		sp := tr.Root().Start(e.ID)
		err := e.Run(w, cfg)
		sp.End()
		if err != nil {
			return fmt.Errorf("bench: experiment %s: %w", e.ID, err)
		}
	}
	return nil
}

// allExperiments lists the experiments defined across this package's files.
func allExperiments() []Experiment {
	return []Experiment{
		figuresExperiment(),
		chainExperiment(),
		scalingExperiment(),
		approxExperiment(),
		lpExperiment(),
		overestimateExperiment(),
		miningExperiment(),
		antimonoExperiment(),
		overlapExperiment(),
	}
}

// render writes a table in the format selected by cfg.
func render(w io.Writer, cfg Config, t *Table) error {
	if cfg.CSV {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}
