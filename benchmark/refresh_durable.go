package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	support "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/store"
)

// commitEvery is the durable engine's commit cadence: every eighth update
// folds the write-ahead log into the segment store. It is also the round
// length of the op loop, so a window always holds whole commit cycles.
const commitEvery = 8

// refreshDurable is the write side: a durable engine over a 2^16-vertex
// graph with one warm mining session; one op is an Engine.Update of four
// mutations (three edge additions and the removal of an earlier addition,
// endpoints from a window of vertex IDs that moves on every commit cycle, so
// the dirty shards are few) followed by Session.Refresh. It prices WAL
// append and fsync, dirty-shard refreeze, the every-eighth dirty-segment
// commit, delta maintenance and the incremental miner.
type refreshDurable struct {
	cfg           *config
	n, idWindow   int
	spec          support.MineSpec
	engineOpts    support.EngineOptions
	g             *graph.Graph
	dir           string
	eng           *support.Engine
	sess          *support.Session
	rng           *gen.RNG
	added         [][2]graph.VertexID // additions not yet removed, oldest first
	opsDone       int
	lastEpoch     uint64
	freezeMs      float64
	writeMs       float64
	openMs        float64
	sessionOpenMs float64
	recoverMs     float64
	replayed      float64
	replica       *graph.Graph
	replicaSnap   *graph.Snapshot
	replicaOpts   graph.FreezeOptions
	replicaMiner  *miner.Incremental
	deltas        []*core.DeltaContext
	deltaOpenMs   float64
	wal           *store.WAL
	walDir        string
	walEpoch      uint64
	shardsRebuilt []float64
	written       int
	carried       int
	commits       int
	meter         *meter
	shares        shares
	lastBatch     []graph.Mutation
}

func newRefreshDurable(cfg *config) *refreshDurable {
	r := &refreshDurable{cfg: cfg, n: 1 << 16, idWindow: 4096, meter: newMeter(), engineOpts: support.EngineOptions{Shards: 16}}
	r.spec = support.MineSpec{MinSupport: float64(r.n / 40), MaxPatternSize: 3}
	if cfg.short {
		r.n, r.idWindow = 1<<10, 128
		r.spec = support.MineSpec{MinSupport: float64(r.n / 40), MaxPatternSize: 2}
	}
	return r
}

func (r *refreshDurable) generate() error {
	r.g = renumber(gen.BarabasiAlbert(r.n, 2, gen.UniformLabels{K: 4}, dataSeed), r.cfg.seed)
	return nil
}

// setup seeds the durable directory with a store written from the frozen
// graph (not by logging 200k mutations through the WAL), opens the durable
// engine on it and opens the warm session.
func (r *refreshDurable) setup() error {
	var err error
	if r.dir, err = os.MkdirTemp(r.cfg.scratch, "refresh-durable-*"); err != nil {
		return err
	}
	r.g.DropSnapshots() // a repeated set-up must freeze cold, like the first
	t := time.Now()
	snap := r.g.FreezeSharded(graph.FreezeOptions{Shards: 16})
	r.freezeMs = msSince(t)
	t = time.Now()
	if err := store.Write(snap, r.dir); err != nil {
		return err
	}
	r.writeMs = msSince(t)
	cadence := commitEvery
	if r.cfg.trace {
		// The traced op commits through Engine.Persist on the same cadence,
		// so that the commit has a span of its own.
		cadence = 0
	}
	t = time.Now()
	if r.eng, err = support.OpenDurableEngine(r.dir, cadence, r.engineOpts); err != nil {
		return err
	}
	r.openMs = msSince(t)
	t = time.Now()
	if r.sess, err = r.eng.OpenSession(r.spec); err != nil {
		return err
	}
	r.sessionOpenMs = msSince(t)
	r.rng = gen.NewRNG(r.cfg.seed)
	r.added, r.opsDone, r.lastEpoch = nil, 0, r.eng.Epoch()
	return nil
}

func (r *refreshDurable) teardown() {
	if r.replicaMiner != nil {
		r.replicaMiner.Close()
		r.replicaMiner = nil
	}
	for _, d := range r.deltas {
		d.Close()
	}
	r.deltas = nil
	if r.wal != nil {
		_ = r.wal.Close() // probe log in a directory about to be removed
		r.wal = nil
	}
	if r.sess != nil {
		r.sess.Close()
		r.sess = nil
	}
	if r.eng != nil {
		_ = r.eng.Close() // the directory is removed next; its final commit is not needed
		r.eng = nil
	}
	for _, d := range []*string{&r.dir, &r.walDir} {
		if *d != "" {
			_ = os.RemoveAll(*d)
			*d = ""
		}
	}
}

func (r *refreshDurable) setupRepeats() int { return 3 }

// mutate draws the next batch from the schedule and applies it to g: three
// additions of edges g does not have, between vertices of the current ID
// window, and, once enough additions are outstanding, the removal of the
// oldest one. It records the batch for the replica and the WAL probe.
func (r *refreshDurable) mutate(g *graph.Graph) error {
	r.lastBatch = r.lastBatch[:0]
	base := (r.opsDone / commitEvery * r.idWindow) % r.n
	for k := 0; k < 3; k++ {
		for {
			u := graph.VertexID(base + r.rng.Intn(r.idWindow))
			v := graph.VertexID(base + r.rng.Intn(r.idWindow))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				return err
			}
			e := graph.Edge{U: u, V: v}.Normalize()
			r.added = append(r.added, [2]graph.VertexID{e.U, e.V})
			r.lastBatch = append(r.lastBatch, graph.Mutation{Kind: graph.MutEdgeAdded, U: e.U, V: e.V})
			break
		}
	}
	if len(r.added) > 6 {
		e := r.added[0]
		r.added = r.added[1:]
		if err := g.RemoveEdge(e[0], e[1]); err != nil {
			return err
		}
		r.lastBatch = append(r.lastBatch, graph.Mutation{Kind: graph.MutEdgeRemoved, U: e[0], V: e[1]})
	}
	r.opsDone++
	return nil
}

// op is one update followed by one refresh, timed together. The refreshed
// result must be for the epoch the update published.
func (r *refreshDurable) op() (float64, bool) {
	t := time.Now()
	epoch, err := r.eng.Update(r.mutate)
	if err != nil {
		return msSince(t), false
	}
	res, at, err := r.sess.Refresh()
	ms := msSince(t)
	ok := err == nil && res != nil && at == epoch && epoch == r.lastEpoch+1
	r.lastEpoch = epoch
	return ms, ok
}

func (r *refreshDurable) warm() error {
	for i := 0; i < commitEvery; i++ {
		var ok bool
		if r.cfg.trace {
			_, ok = r.tracedOp(i-commitEvery, nil)
		} else {
			_, ok = r.op()
		}
		if !ok {
			return fmt.Errorf("refresh-durable: warm-up op %d failed", i)
		}
	}
	return nil
}

func (r *refreshDurable) run(w *window) {
	if r.cfg.trace {
		// The traced run's engine commits through Persist and its replica
		// has to see every batch, so the baseline window runs the traced op
		// too, without a tracer, and counts only the real calls' time.
		w.loop(commitEvery, 1, func(i int) (float64, bool) { return r.tracedOp(i, nil) })
		return
	}
	w.loop(commitEvery, 1, func(int) (float64, bool) { return r.op() })
}

// prepareTrace builds what the replays need: a replica of the engine's graph
// with its own incremental miner and one delta context per tracked pattern,
// and a scratch write-ahead log.
func (r *refreshDurable) prepareTrace() error {
	snap, _ := r.eng.Current()
	r.replica = graph.FromSnapshot(snap)
	r.replicaOpts = graph.FreezeOptions{ShardSize: snap.ShardSize()}
	r.replicaSnap = r.replica.FreezeSharded(r.replicaOpts)
	cfg := miner.Config{MinSupport: r.spec.MinSupport, MaxPatternSize: r.spec.MaxPatternSize, EnumShards: r.engineOpts.Shards}
	var err error
	if r.replicaMiner, err = miner.NewIncremental(r.replica, cfg); err != nil {
		return err
	}
	// The tracked set is the candidate set of the cold run: the seeds plus
	// every extension of a frequent pattern, deduplicated.
	labels := snap.Labels()
	seen := map[string]bool{}
	var tracked []*pattern.Pattern
	add := func(p *pattern.Pattern) {
		if code := p.CanonicalCode(); !seen[code] {
			seen[code] = true
			tracked = append(tracked, p)
		}
	}
	for _, p := range seedPatterns(snap) {
		add(p)
	}
	for _, fp := range r.sess.Result().Patterns {
		for _, e := range fp.Pattern.Extend(labels) {
			if e.Result.Size() <= r.spec.MaxPatternSize {
				add(e.Result)
			}
		}
	}
	if len(tracked) != r.sess.TrackedPatterns() {
		return fmt.Errorf("refresh-durable: reconstructed %d tracked patterns, the session tracks %d", len(tracked), r.sess.TrackedPatterns())
	}
	t := time.Now()
	for _, p := range tracked {
		d, err := core.NewDeltaContext(r.replica, p, core.Options{Shards: r.engineOpts.Shards})
		if err != nil {
			return err
		}
		r.deltas = append(r.deltas, d)
	}
	r.deltaOpenMs = msSince(t)
	if r.walDir, err = os.MkdirTemp(r.cfg.scratch, "wal-probe-*"); err != nil {
		return err
	}
	r.walEpoch = 1
	r.wal, err = store.OpenWAL(r.walDir, r.walEpoch)
	return err
}

func (r *refreshDurable) runTraced(w *window, tr *tracer) {
	w.loop(commitEvery, 1, func(i int) (float64, bool) {
		t := time.Now()
		_, ok := r.tracedOp(i, tr)
		return msSince(t), ok
	})
}

// tracedOp is the op with an explicit commit every eighth call, a span
// around each call, and the replays after them: the same batch applied to
// the replica graph and refrozen, appended to the scratch WAL, refreshed
// through the replica's miner and through its delta contexts. It returns the
// time of the real calls alone. A nil tr drops the spans.
func (r *refreshDurable) tracedOp(i int, tr *tracer) (realMs float64, ok bool) {
	if tr == nil {
		tr = newTracer("")
	}
	ok = true
	tr.span(0, i, "harness.op", func(op int) {
		var err error
		var epoch, at uint64
		var updMs, refMs, commitMs float64
		r.meter.around(func() {
			updMs = tr.span(op, i, "support.update", func(int) { epoch, err = r.eng.Update(r.mutate) })
		})
		if err != nil {
			ok = false
			return
		}
		var res *miner.Result
		r.meter.around(func() {
			refMs = tr.span(op, i, "support.session_refresh", func(int) { res, at, err = r.sess.Refresh() })
		})
		if err != nil || res == nil || at != epoch || epoch != r.lastEpoch+1 {
			ok = false
			return
		}
		r.lastEpoch = epoch
		commit := r.opsDone%commitEvery == 0
		if commit {
			var stats support.WriteStats
			commitMs = tr.span(op, i, "store.commit", func(int) { stats, err = r.eng.Persist() })
			if err != nil {
				ok = false
				return
			}
			r.written += stats.SegmentsWritten
			r.carried += stats.SegmentsCarried
			r.commits++
		}
		realMs = updMs + refMs + commitMs
		if r.replica == nil {
			return
		}

		for _, m := range r.lastBatch {
			if err := r.replica.Apply(m); err != nil {
				ok = false
				return
			}
		}
		var next *graph.Snapshot
		refreezeMs := tr.span(op, i, "graph.refreeze", func(int) { next = r.replica.FreezeSharded(r.replicaOpts) })
		rebuilt := 0
		for k := 0; k < next.NumShards(); k++ {
			if !next.SharesShard(r.replicaSnap, k) {
				rebuilt++
			}
		}
		r.shardsRebuilt = append(r.shardsRebuilt, float64(rebuilt))
		r.replicaSnap = next
		walMs := tr.span(op, i, "store.wal_append", func(int) { err = r.wal.Append(r.lastBatch) })
		if err == nil && commit {
			r.walEpoch++
			err = r.wal.Reset(r.walEpoch)
		}
		if err != nil {
			ok = false
			return
		}
		var replicaRes *miner.Result
		minerMs := tr.span(op, i, "miner.refresh", func(int) { replicaRes, err = r.replicaMiner.Refresh() })
		if err != nil || miningDigest(replicaRes) != miningDigest(res) {
			ok = false
			return
		}
		deltaMs := tr.span(op, i, "core.delta_refresh", func(int) {
			for _, d := range r.deltas {
				if derr := d.Refresh(); derr != nil {
					err = derr
				}
			}
		})
		if err != nil {
			ok = false
			return
		}
		r.shares.total += updMs + refMs + commitMs
		r.shares.add("graph", refreezeMs)
		r.shares.add("store", walMs+commitMs)
		r.shares.add("support", updMs-refreezeMs-walMs)
		r.shares.add("support", refMs-minerMs)
		r.shares.add("miner", minerMs-deltaMs)
		r.shares.add("core", deltaMs)
	})
	return realMs, ok
}

// finish checks that the session's answer equals a cold mine, and that the
// bytes on disk recover to exactly the served graph: three more ops leave
// acknowledged but uncommitted batches in the log, the directory is copied
// as a crash would leave it, and a second engine is opened on the copy.
func (r *refreshDurable) finish() (int, error) {
	failed := 0
	r.replica = nil // the replays are done; from here only the real calls run
	for i := 0; i < 3; i++ {
		var ok bool
		if r.cfg.trace {
			_, ok = r.tracedOp(-1, nil)
		} else {
			_, ok = r.op()
		}
		if !ok {
			failed++
		}
	}
	cold, err := r.eng.Do(&support.Request{Mine: &r.spec})
	if err != nil {
		return failed, err
	}
	if miningDigest(cold.Mining) != miningDigest(r.sess.Result()) {
		failed++
	}

	crashDir, err := os.MkdirTemp(r.cfg.scratch, "refresh-durable-crash-*")
	if err != nil {
		return failed, err
	}
	defer os.RemoveAll(crashDir)
	if err := copyDir(r.dir, crashDir); err != nil {
		return failed, err
	}
	replayedBefore := obs.Default.CounterValue("repro_wal_replayed_batches_total")
	t := time.Now()
	recovered, err := support.OpenDurableEngine(crashDir, 0, r.engineOpts)
	if err != nil {
		return failed, fmt.Errorf("recover: %w", err)
	}
	r.recoverMs = msSince(t)
	defer recovered.Close()
	r.replayed = float64(obs.Default.CounterValue("repro_wal_replayed_batches_total") - replayedBefore)
	live, _ := r.eng.Current()
	got, _ := recovered.Current()
	if want := float64(r.opsDone % commitEvery); r.replayed != want || !graph.FromSnapshot(live).Equal(graph.FromSnapshot(got)) {
		failed++
	}
	return failed, nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyFile copies one file.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (r *refreshDurable) layerMetrics(tr *tracer, out map[string]float64) float64 {
	upd, ref := tr.medianMs("support.update"), tr.medianMs("support.session_refresh")
	out["graph.freeze_ms"] = r.freezeMs
	out["graph.refreeze_ms"] = tr.medianMs("graph.refreeze")
	out["graph.shards_rebuilt"] = median(r.shardsRebuilt)
	out["store.write_ms"] = r.writeMs
	out["store.open_ms"] = r.openMs
	out["store.wal_append_us"] = tr.meanCallUs("store.wal_append")
	out["store.wal_fsync_ms"] = r.meter.histMean("repro_wal_fsync_seconds") * 1e3
	out["store.commit_ms"] = tr.medianMs("store.commit")
	out["store.recover_ms"] = r.recoverMs
	out["store.wal_replayed_batches"] = r.replayed
	if r.commits > 0 {
		out["store.segments_written"] = float64(r.written) / float64(r.commits)
		out["store.segments_carried"] = float64(r.carried) / float64(r.commits)
		out["store.carried_share"] = 100 * float64(r.carried) / float64(r.written+r.carried)
	}
	if snap, _ := r.eng.Current(); snap.NumEdges() > 0 {
		if size, err := dirBytes(r.dir); err == nil {
			out["store.bytes_per_edge"] = float64(size) / float64(snap.NumEdges())
		}
	}
	out["support.update_ms"] = upd
	out["support.session_open_ms"] = r.sessionOpenMs
	out["support.session_refresh_ms"] = ref
	out["support.engine_overhead_us"] = (ref - tr.medianMs("miner.refresh")) * 1e3
	out["miner.refresh_ms"] = tr.medianMs("miner.refresh")
	out["miner.self_ms"] = tr.medianMs("miner.refresh") - tr.medianMs("core.delta_refresh")
	out["miner.tracked_patterns"] = float64(r.sess.TrackedPatterns())
	out["miner.frequent"] = float64(r.sess.Result().Stats.Frequent)
	out["core.delta_open_ms"] = r.deltaOpenMs
	out["core.delta_refresh_ms"] = tr.medianMs("core.delta_refresh")
	out["core.delta_ball_vertices"] = r.meter.histMean("repro_delta_ball_vertices")
	if all := float64(r.opsDone); all > 0 {
		// The meter ran over the warm-up, baseline, traced and tail ops
		// alike, so the per-op counts divide by every op.
		out["graph.mutations"] = r.meter.counters["repro_graph_mutations_total"] / all
		out["store.wal_appends"] = r.meter.counters["repro_wal_appends_total"] / all
		out["core.delta_refreshes"] = r.meter.counters["repro_delta_delta_refreshes_total"] / all
		out["core.delta_full_rebuilds"] = r.meter.counters["repro_delta_full_rebuilds_total"] / all
	}
	r.shares.fill(out)
	return upd + ref
}

// dirBytes sums the sizes of the regular files of dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
