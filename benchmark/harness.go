package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// config is one run's settings, from the command line.
type config struct {
	workload string
	seed     uint64
	// seconds is the length of the timed window. The window closes at the
	// first round boundary after it; ops, when positive, replaces the clock
	// with a fixed op count so that two runs execute identical work.
	seconds float64
	ops     int
	trace   bool
	// scratch is the directory every file of the run lives under: store
	// directories (each its own os.MkdirTemp child) and the span file.
	scratch string
	// short shrinks every input to self-test size.
	short bool
}

// workload is one benchmark workload. The harness drives it in this order:
// generate, setup (several times, each but the last followed by teardown),
// prepareTrace (traced runs only), warm, run [, runTraced], finish, teardown.
type workload interface {
	// generate draws the inputs from the seed. It is the harness's own work
	// and is not part of setup_s.
	generate() error
	// setup is everything the system does before it can take the first op:
	// parse, freeze, write and open stores, open sessions, start the server.
	setup() error
	// teardown releases what setup built. It must be safe to call twice.
	teardown()
	// setupRepeats is how many times setup is timed; setup_s is the median.
	setupRepeats() int
	// prepareTrace builds the replicas and probes only traced ops need.
	prepareTrace() error
	// warm runs the untimed warm-up ops and records the reference answer.
	warm() error
	// run executes untraced ops until the window closes.
	run(w *window)
	// runTraced executes ops as their decomposition, one span per layer call.
	runTraced(w *window, tr *tracer)
	// finish runs the after-window checks and returns how many failed.
	finish() (failed int, err error)
	// layerMetrics fills the per-layer metrics this workload can measure and
	// returns the median duration of the real (undecomposed) call inside a
	// traced op, which is what tracing overhead is measured on.
	layerMetrics(tr *tracer, m map[string]float64) (realOpMs float64)
}

// window collects the samples of one timed window. loop may be called from
// several goroutines at once.
type window struct {
	deadline time.Time
	fixedOps int
	box      *boxSpeed

	mu     sync.Mutex
	ms     []float64
	failed int
}

// loop calls op(i) for i = 0, 1, ... on the calling goroutine. It returns at
// the first multiple of round at which the window is closed: the clock has
// passed the deadline or, in fixed-work mode, share*fixedOps ops are done.
// op times the call it measures itself, so that checking the answer is not
// part of the latency, and reports whether the answer was correct. The loop
// that carries most of the window's ops (share above a half) also samples
// the box's speed between ops.
func (w *window) loop(round int, share float64, op func(i int) (ms float64, ok bool)) {
	var ms []float64
	failed := 0
	target := int(float64(w.fixedOps)*share + 0.5)
	for i := 0; ; i++ {
		if i%round == 0 && i > 0 {
			if w.fixedOps > 0 && i >= target {
				break
			}
			if w.fixedOps == 0 && !time.Now().Before(w.deadline) {
				break
			}
		}
		if share > 0.5 {
			w.box.sampleIfDue()
		}
		d, ok := op(i)
		ms = append(ms, d)
		if !ok {
			failed++
		}
	}
	w.mu.Lock()
	w.ms = append(w.ms, ms...)
	w.failed += failed
	w.mu.Unlock()
}

// usage is a reading of the process's resource counters.
type usage struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  uint64
}

// readUsage reads wall clock, user+system CPU (getrusage) and the heap
// allocation and GC counters (runtime.MemStats).
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{at: time.Now(), cpu: cpu, alloc: ms.TotalAlloc, gcCycles: ms.NumGC, gcPause: ms.PauseTotalNs}
}

// windowStats is what one timed window measured.
type windowStats struct {
	ms         []float64 // per-op wall latency, sorted ascending
	failed     int
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	// slow is the box's speed factor over the window (see boxSpeed): the
	// caller divides times by it. wall and cpu already exclude the time the
	// speed kernel itself took.
	slow float64
}

// measure runs body over a fresh window of the given length and returns its
// samples together with the resource deltas across it. One forced GC before
// the window starts every window from a collected heap.
func measure(cfg *config, box *boxSpeed, seconds float64, body func(w *window)) windowStats {
	runtime.GC()
	w := &window{fixedOps: cfg.ops, box: box}
	box.sample()
	sweptBefore := box.spentMs
	before := readUsage()
	w.deadline = before.at.Add(time.Duration(seconds * float64(time.Second)))
	body(w)
	after := readUsage()
	// Only the sweeps inside the window cost it wall and CPU time.
	kernel := time.Duration((box.spentMs - sweptBefore) * float64(time.Millisecond))
	slow := box.take()
	sort.Float64s(w.ms)
	return windowStats{
		ms:         w.ms,
		failed:     w.failed,
		slow:       slow,
		wall:       after.at.Sub(before.at) - kernel,
		cpu:        after.cpu - before.cpu - kernel,
		allocBytes: after.alloc - before.alloc,
		gcCycles:   after.gcCycles - before.gcCycles,
		gcPauseNs:  after.gcPause - before.gcPause,
	}
}

// peakRSSMB returns VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// quantile returns the q-quantile (0..1) of an ascending slice by the
// nearest-rank rule; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// msSince is the wall time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// meter accumulates how far chosen obs.Default counters and histograms move
// across chosen intervals. A traced op wraps only its real calls in around,
// so the replay probes between them do not leak into the counts.
type meter struct {
	counters map[string]float64
	histSum  map[string]float64
	histN    map[string]float64
}

// meteredCounters and meteredHistograms name the registry metrics the
// per-layer metrics are deltas of.
var (
	meteredCounters = []string{
		"repro_graph_mutations_total", "repro_enum_roots_total", "repro_enum_shard_drains_total",
		"repro_store_page_ins_total", "repro_store_evictions_total",
		"repro_store_segments_written_total", "repro_store_segments_carried_total",
		"repro_wal_appends_total", "repro_wal_replayed_batches_total",
		"repro_delta_refreshes_total", "repro_delta_delta_refreshes_total", "repro_delta_full_rebuilds_total",
		"repro_server_http_errors_total",
	}
	meteredHistograms = []string{
		"repro_wal_fsync_seconds", "repro_delta_ball_vertices", "repro_server_admission_wait_seconds",
		"repro_engine_enumerate_seconds", "repro_engine_aggregate_seconds", "repro_engine_mine_seconds",
		"repro_session_refresh_seconds",
	}
)

// newMeter returns a meter with every reading at zero.
func newMeter() *meter {
	return &meter{counters: map[string]float64{}, histSum: map[string]float64{}, histN: map[string]float64{}}
}

// around runs fn and adds what the metered metrics moved by while it ran.
func (m *meter) around(fn func()) {
	m.add(-1)
	fn()
	m.add(1)
}

// add adds sign times the current reading of every metered metric.
func (m *meter) add(sign float64) {
	for _, name := range meteredCounters {
		m.counters[name] += sign * float64(obs.Default.CounterValue(name))
	}
	for _, name := range meteredHistograms {
		if h := obs.Default.Histogram(name); h != nil {
			m.histSum[name] += sign * h.Sum()
			m.histN[name] += sign * float64(h.Count())
		}
	}
}

// histMean is the mean observation of the named histogram over the metered
// intervals, zero when it saw none.
func (m *meter) histMean(name string) float64 {
	if m.histN[name] == 0 {
		return 0
	}
	return m.histSum[name] / m.histN[name]
}

// shares attributes the real call's time in a traced run to layers.
type shares struct {
	total float64
	self  map[string]float64
}

// add credits ms (clipped at zero: a replay can outrun the call it
// decomposes by noise) to layer.
func (s *shares) add(layer string, ms float64) {
	if s.self == nil {
		s.self = map[string]float64{}
	}
	if ms > 0 {
		s.self[layer] += ms
	}
}

// fill writes "<layer>.self_share" for every credited layer, in percent of
// the real calls' total time. Replays are estimates, so the credits can add
// up to more than the total; they are then scaled down to it, and nothing is
// left unattributed.
func (s *shares) fill(m map[string]float64) {
	credited := 0.0
	for _, ms := range s.self {
		credited += ms
	}
	if s.total <= 0 || credited <= 0 {
		return
	}
	for layer, ms := range s.self {
		m[layer+".self_share"] = 100 * ms / max(s.total, credited)
	}
}
