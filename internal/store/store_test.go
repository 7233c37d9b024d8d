package store_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/measures"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/store"
)

// workloadGraph is the shared data graph of the round-trip tests: large
// enough that sharding and parallel enumeration genuinely engage.
func workloadGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.BarabasiAlbert(600, 3, gen.UniformLabels{K: 3}, 11)
}

func starPattern(t *testing.T) *pattern.Pattern {
	t.Helper()
	pg := graph.New("star4")
	pg.MustAddVertex(1, 1)
	pg.MustAddVertex(2, 2)
	pg.MustAddVertex(3, 2)
	pg.MustAddVertex(4, 3)
	pg.MustAddEdge(1, 2)
	pg.MustAddEdge(1, 3)
	pg.MustAddEdge(1, 4)
	p, err := pattern.New(pg)
	if err != nil {
		t.Fatalf("pattern.New: %v", err)
	}
	return p
}

// requireSameOccurrences compares two canonical occurrence lists element by
// element.
func requireSameOccurrences(t *testing.T, got, want []*isomorph.Occurrence, tag string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: enumerated %d occurrences, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].Compare(want[i]) != 0 {
			t.Fatalf("%s: occurrence %d differs: %v vs %v", tag, i, got[i], want[i])
		}
	}
}

// TestRoundTripEnumeration writes stores at shard counts {1,2,7}, reopens
// them, and checks enumeration over the mmap-backed snapshots is
// byte-identical to the in-memory snapshots at parallelism {1,4}. CI runs
// this under -race, which also exercises concurrent residency accounting.
func TestRoundTripEnumeration(t *testing.T) {
	g := workloadGraph(t)
	p := starPattern(t)
	for _, shards := range []int{1, 2, 7} {
		snap := g.FreezeSharded(graph.FreezeOptions{Shards: shards})
		dir := filepath.Join(t.TempDir(), "store")
		if err := store.Write(snap, dir); err != nil {
			t.Fatalf("shards=%d: Write: %v", shards, err)
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("shards=%d: Open: %v", shards, err)
		}
		mm := st.Snapshot()
		if mm.NumVertices() != snap.NumVertices() || mm.NumEdges() != snap.NumEdges() ||
			mm.NumShards() != snap.NumShards() || mm.ShardSize() != snap.ShardSize() || mm.Name() != snap.Name() {
			t.Fatalf("shards=%d: reopened snapshot geometry differs", shards)
		}
		for _, par := range []int{1, 4} {
			got := isomorph.EnumerateSnapshot(mm, p, isomorph.Options{Parallelism: par})
			want := isomorph.EnumerateSnapshot(snap, p, isomorph.Options{Parallelism: par})
			if len(want) == 0 {
				t.Fatalf("shards=%d: workload enumerates no occurrences; test is vacuous", shards)
			}
			requireSameOccurrences(t, got, want, "round trip")
		}
		if err := st.Close(); err != nil {
			t.Fatalf("shards=%d: Close: %v", shards, err)
		}
	}
}

// TestRoundTripMining mines a store-opened snapshot and checks the result —
// patterns, supports, raw counts — is identical to mining the in-memory
// graph, at shard counts {1,2,7} and candidate parallelism {1,4}.
func TestRoundTripMining(t *testing.T) {
	g := workloadGraph(t)
	cfg := miner.Config{MinSupport: 12, MaxPatternSize: 3, Measure: measures.MNI{}, EnumParallelism: 1}
	m, err := miner.New(g, cfg)
	if err != nil {
		t.Fatalf("miner.New: %v", err)
	}
	want, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("in-memory mining found nothing; test is vacuous")
	}

	for _, shards := range []int{1, 2, 7} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := store.Write(g.FreezeSharded(graph.FreezeOptions{Shards: shards}), dir); err != nil {
			t.Fatalf("shards=%d: Write: %v", shards, err)
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("shards=%d: Open: %v", shards, err)
		}
		for _, par := range []int{1, 4} {
			pcfg := cfg
			pcfg.Parallelism = par
			sm, err := miner.NewSnapshot(st.Snapshot(), pcfg)
			if err != nil {
				t.Fatalf("shards=%d par=%d: NewSnapshot: %v", shards, par, err)
			}
			got, err := sm.Mine()
			if err != nil {
				t.Fatalf("shards=%d par=%d: Mine: %v", shards, par, err)
			}
			requireSameMiningResult(t, got, want)
		}
		st.Close()
	}
}

func requireSameMiningResult(t *testing.T, got, want *miner.Result) {
	t.Helper()
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("store mining found %d frequent patterns, in-memory found %d", len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Patterns {
		gp, wp := got.Patterns[i], want.Patterns[i]
		if gp.Pattern.CanonicalCode() != wp.Pattern.CanonicalCode() ||
			gp.Support != wp.Support || gp.Occurrences != wp.Occurrences || gp.Instances != wp.Instances {
			t.Fatalf("pattern %d differs: got %+v, want %+v", i, gp, wp)
		}
	}
}

// TestPagingForcedMiningMatchesInMemory is the acceptance scenario: the
// store's mapped bytes are at least 4x the residency budget, so mining must
// page shards in and out throughout — and still produce exactly the
// in-memory result, with evictions actually observed.
func TestPagingForcedMiningMatchesInMemory(t *testing.T) {
	g := gen.BarabasiAlbert(2048, 3, gen.UniformLabels{K: 3}, 5)
	snap := g.FreezeSharded(graph.FreezeOptions{ShardSize: 256}) // 8 shards
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.Write(snap, dir); err != nil {
		t.Fatalf("Write: %v", err)
	}

	probe, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("Open (probe): %v", err)
	}
	total := probe.Residency().MappedBytes
	probe.Close()
	budget := total / 4

	st, err := store.Open(dir, store.Options{ResidencyBudget: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if got := st.Residency().BudgetBytes; got != budget {
		t.Fatalf("budget = %d, want %d", got, budget)
	}

	cfg := miner.Config{MinSupport: 40, MaxPatternSize: 3, Measure: measures.MNI{}, EnumParallelism: 1}
	m, err := miner.New(g, cfg)
	if err != nil {
		t.Fatalf("miner.New: %v", err)
	}
	want, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine (in-memory): %v", err)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("in-memory mining found nothing; test is vacuous")
	}
	sm, err := miner.NewSnapshot(st.Snapshot(), cfg)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	got, err := sm.Mine()
	if err != nil {
		t.Fatalf("Mine (store): %v", err)
	}
	requireSameMiningResult(t, got, want)

	stats := st.Residency()
	if stats.PageIns == 0 {
		t.Fatal("mining over a budgeted store recorded no page-ins")
	}
	if stats.Evictions == 0 {
		t.Fatalf("store is %dx the budget but nothing was evicted (stats %+v)", total/budget, stats)
	}
	if stats.ResidentBytes > budget+int64(total/8) {
		t.Fatalf("resident accounting %d exceeds budget %d by more than one shard", stats.ResidentBytes, budget)
	}
}

// TestOpenErrorPaths corrupts a valid store in every gated way and checks
// Open reports each one distinctly.
func TestOpenErrorPaths(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, gen.UniformLabels{K: 2}, 3)
	snap := g.FreezeSharded(graph.FreezeOptions{Shards: 4})

	fresh := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "store")
		if err := store.Write(snap, dir); err != nil {
			t.Fatalf("Write: %v", err)
		}
		return dir
	}
	segOf := func(t *testing.T, dir string) string {
		matches, err := filepath.Glob(filepath.Join(dir, "shard-*.seg"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no segment files in %s", dir)
		}
		return matches[0]
	}
	editManifest := func(t *testing.T, dir string, edit func(*store.Manifest)) {
		path := filepath.Join(dir, store.ManifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading manifest: %v", err)
		}
		var man store.Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("parsing manifest: %v", err)
		}
		edit(&man)
		out, err := json.Marshal(man)
		if err != nil {
			t.Fatalf("encoding manifest: %v", err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatalf("writing manifest: %v", err)
		}
	}

	t.Run("truncated segment", func(t *testing.T) {
		dir := fresh(t)
		seg := segOf(t, dir)
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, st.Size()-16); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir, store.Options{}); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("Open of truncated segment: %v", err)
		}
	})

	t.Run("checksum mismatch", func(t *testing.T) {
		dir := fresh(t)
		seg := segOf(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-5] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir, store.Options{}); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("Open of corrupted segment: %v", err)
		}
		// SkipVerify opens the same corrupted store without a checksum pass;
		// the flipped byte sits in label-index payload the geometry checks
		// never look at.
		st, err := store.Open(dir, store.Options{SkipVerify: true})
		if err != nil {
			t.Fatalf("Open with SkipVerify: %v", err)
		}
		st.Close()
	})

	t.Run("unknown manifest version", func(t *testing.T) {
		dir := fresh(t)
		editManifest(t, dir, func(m *store.Manifest) { m.Version = store.FormatVersion + 7 })
		if _, err := store.Open(dir, store.Options{}); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("Open of future-version store: %v", err)
		}
	})

	t.Run("unknown segment version", func(t *testing.T) {
		dir := fresh(t)
		seg := segOf(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[4] = 0xEE // header version field
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir, store.Options{SkipVerify: true}); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("Open of future-version segment: %v", err)
		}
	})

	t.Run("wrong format", func(t *testing.T) {
		dir := fresh(t)
		editManifest(t, dir, func(m *store.Manifest) { m.Format = "something-else" })
		if _, err := store.Open(dir, store.Options{}); err == nil || !strings.Contains(err.Error(), "format") {
			t.Fatalf("Open of foreign-format dir: %v", err)
		}
	})

	t.Run("missing manifest", func(t *testing.T) {
		if _, err := store.Open(t.TempDir(), store.Options{}); err == nil || !strings.Contains(err.Error(), "not a shard store") {
			t.Fatalf("Open of empty dir: %v", err)
		}
	})

	t.Run("missing segment", func(t *testing.T) {
		dir := fresh(t)
		if err := os.Remove(segOf(t, dir)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir, store.Options{}); err == nil {
			t.Fatal("Open with a missing segment succeeded")
		}
	})
}

// TestEmptyGraphRoundTrip pins the zero-shard store.
func TestEmptyGraphRoundTrip(t *testing.T) {
	g := graph.New("empty")
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.Write(g.Freeze(), dir); err != nil {
		t.Fatalf("Write: %v", err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if st.Snapshot().NumVertices() != 0 || st.Snapshot().NumShards() != 0 {
		t.Fatalf("empty store reopened with |V|=%d shards=%d", st.Snapshot().NumVertices(), st.Snapshot().NumShards())
	}
}

// TestStoreOfStoreRoundTrip writes a store, reopens it, and writes the
// reopened snapshot again — the manifests' totals and checksums must agree,
// pinning that Write accepts any snapshot, mmap-backed ones included.
func TestStoreOfStoreRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(300, 2, gen.UniformLabels{K: 3}, 9)
	snap := g.FreezeSharded(graph.FreezeOptions{Shards: 3})
	dir1 := filepath.Join(t.TempDir(), "a")
	dir2 := filepath.Join(t.TempDir(), "b")
	if err := store.Write(snap, dir1); err != nil {
		t.Fatalf("Write 1: %v", err)
	}
	st, err := store.Open(dir1, store.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if err := store.Write(st.Snapshot(), dir2); err != nil {
		t.Fatalf("Write 2: %v", err)
	}
	m1, m2 := st.Manifest(), store.Manifest{}
	data, err := os.ReadFile(filepath.Join(dir2, store.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	if m1.Vertices != m2.Vertices || m1.Edges != m2.Edges || m1.Shards != m2.Shards || m1.ShardShift != m2.ShardShift {
		t.Fatalf("re-written store disagrees: %+v vs %+v", m1, m2)
	}
	for i := range m1.Segments {
		if m1.Segments[i].CRC32C != m2.Segments[i].CRC32C {
			t.Fatalf("segment %d checksum changed across a store-of-store round trip", i)
		}
	}
}

// TestRewriteShrinkingStore overwrites an 8-shard store with a 2-shard one
// in the same directory and checks the orphaned segment files are removed,
// no staging files linger, and the store reopens as the new graph.
func TestRewriteShrinkingStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	big := gen.BarabasiAlbert(1024, 2, gen.UniformLabels{K: 2}, 1)
	if err := store.Write(big.FreezeSharded(graph.FreezeOptions{ShardSize: 128}), dir); err != nil {
		t.Fatalf("Write (big): %v", err)
	}
	small := gen.BarabasiAlbert(256, 2, gen.UniformLabels{K: 2}, 2)
	if err := store.Write(small.FreezeSharded(graph.FreezeOptions{ShardSize: 128}), dir); err != nil {
		t.Fatalf("Write (small): %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("shrinking rewrite left %d segment files, want 2: %v", len(segs), segs)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("rewrite left staging files behind: %v", tmps)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("Open after rewrite: %v", err)
	}
	defer st.Close()
	if st.Snapshot().NumVertices() != 256 {
		t.Fatalf("reopened store has |V|=%d, want 256", st.Snapshot().NumVertices())
	}
}

// TestParseBudget pins the budget syntax.
func TestParseBudget(t *testing.T) {
	cases := []struct {
		in    string
		bytes int64
		frac  float64
		ok    bool
	}{
		{"", 0, 0, true},
		{"1048576", 1 << 20, 0, true},
		{"64KiB", 64 << 10, 0, true},
		{"1.5MiB", 3 << 19, 0, true},
		{"2GiB", 2 << 30, 0, true},
		{"16MB", 16 << 20, 0, true},
		{"8M", 8 << 20, 0, true},
		{"25%", 0, 0.25, true},
		{"100%", 0, 1, true},
		{"0%", 0, 0, false},
		{"150%", 0, 0, false},
		{"-3", 0, 0, false},
		{"garbage", 0, 0, false},
		{"12XiB", 0, 0, false},
	}
	for _, c := range cases {
		b, f, err := store.ParseBudget(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseBudget(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (b != c.bytes || f != c.frac) {
			t.Errorf("ParseBudget(%q) = (%d, %g), want (%d, %g)", c.in, b, f, c.bytes, c.frac)
		}
	}
}

// TestEnvBudgetOverride pins that the BudgetEnv variable forces a paging
// budget on stores opened without one — the hook the CI paging-forced test
// pass relies on.
func TestEnvBudgetOverride(t *testing.T) {
	g := gen.BarabasiAlbert(512, 3, gen.UniformLabels{K: 2}, 4)
	snap := g.FreezeSharded(graph.FreezeOptions{ShardSize: 128})
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.Write(snap, dir); err != nil {
		t.Fatalf("Write: %v", err)
	}
	t.Setenv(store.BudgetEnv, "25%")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	stats := st.Residency()
	if stats.BudgetBytes <= 0 || stats.BudgetBytes >= stats.MappedBytes {
		t.Fatalf("env budget not applied: %+v", stats)
	}
	t.Setenv(store.BudgetEnv, "nonsense")
	if _, err := store.Open(dir, store.Options{}); err == nil {
		t.Fatal("Open accepted an unparseable env budget")
	}
}
