package store

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// DB is a durable mutable graph: a mutable graph.Graph bound to a store
// directory, a write-ahead log, and the manifest-swap rewrite protocol. The
// graph is the committed snapshot (as its base) plus an overlay of the
// mutations since, never a second map-based copy of the data.
// Mutations are applied to the graph and logged with Log — an fsynced WAL
// append that makes them crash-durable before they are acknowledged — and
// folded into the segment store with Commit, an incremental WriteUpdate
// that rewrites only dirty shards and then truncates the log. OpenDB on a
// directory that crashed anywhere in that cycle recovers the last committed
// epoch and replays the WAL tail, reconstructing exactly the acknowledged
// mutation history.
//
// A DB is not safe for concurrent use; the serving engine holds its own
// lock around the mutate path.
type DB struct {
	dir  string
	opts graph.FreezeOptions
	g    *graph.Graph
	feed *graph.MutationFeed
	wal  *WAL

	// prev is the snapshot the directory's manifest was committed from; it
	// shares clean shards by array identity with the next freeze, which is
	// what lets Commit skip their segments.
	prev *graph.Snapshot
	// segBuf is the buffer Commit encodes segments into, kept from one
	// segment and one commit to the next; Commit is its one writer.
	segBuf  []byte
	epoch   uint64
	pending int
	closed  bool
}

// OpenDB opens (creating if needed) a durable graph at dir. An existing
// store is loaded and its snapshot, copied off the mapped segments onto the
// heap, becomes the base of the mutable graph (graph.FromSnapshot) — nothing
// is rebuilt, and the first freeze at the store's shard size returns that
// snapshot — and the write-ahead log tail — batches logged under the
// manifest's epoch but never committed — is replayed onto it; batches
// stamped with older epochs are already part of the snapshot and are
// skipped. A fresh directory starts
// empty at epoch zero. The shards argument fixes the freeze geometry of a
// fresh database; an existing store keeps the shard size it was written
// with, so carried segments stay carriable.
func OpenDB(dir string, shards int) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	db := &DB{dir: dir, opts: graph.FreezeOptions{Shards: shards}}
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err == nil {
		st, err := Open(dir, Options{})
		if err != nil {
			return nil, err
		}
		db.g = graph.FromSnapshot(st.Snapshot())
		db.epoch = st.Manifest().Epoch
		db.opts = graph.FreezeOptions{ShardSize: 1 << st.Manifest().ShardShift}
		if err := st.Close(); err != nil {
			return nil, err
		}
		// The pre-replay graph's freeze is the restored snapshot itself (a
		// cache hit): its shards hold exactly the committed bytes, so the
		// next Commit's freeze shares every shard the replayed tail leaves
		// clean, and WriteUpdate carries those segments.
		db.prev = db.g.FreezeSharded(db.opts)
	} else {
		db.g = graph.New(filepath.Base(dir))
	}
	// Replay even without a manifest: a fresh database that crashed before
	// its first Commit has epoch-zero batches and nothing else.
	if err := db.replay(); err != nil {
		return nil, err
	}
	wal, err := OpenWAL(dir, db.epoch)
	if err != nil {
		return nil, err
	}
	db.wal = wal
	// Subscribe after the replay: replayed mutations are already in the log
	// (it is only truncated by the next Commit), so re-logging them would
	// duplicate the history on a second crash.
	db.feed = db.g.Subscribe()
	return db, nil
}

// replay applies the WAL tail — every batch logged under the current epoch
// — onto the freshly restored graph, strictly: recovery replays exactly the
// acknowledged history onto exactly the snapshot it was logged against, so
// any non-clean application means the directory is corrupt.
func (db *DB) replay() error {
	batches, err := ReadWAL(db.dir)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if b.Epoch < db.epoch {
			continue
		}
		if b.Epoch > db.epoch {
			return fmt.Errorf("store: WAL batch from epoch %d is ahead of the store at epoch %d", b.Epoch, db.epoch)
		}
		for _, m := range b.Muts {
			if err := db.g.Apply(m); err != nil {
				return fmt.Errorf("store: replaying WAL onto epoch %d: %w", db.epoch, err)
			}
		}
		db.pending += len(b.Muts)
		mWALReplayedBatches.Inc()
		mWALReplayedMutations.Add(uint64(len(b.Muts)))
	}
	return nil
}

// Graph returns the mutable graph. Mutate it freely — through it, the
// server's Mutate path, or graph.Apply — then call Log to make the batch
// durable and Commit to fold it into the segment store.
func (db *DB) Graph() *graph.Graph { return db.g }

// Log drains the mutations applied since the last Log and appends them to
// the write-ahead log as one fsynced batch. It returns only after the batch
// is durable, so a caller that acknowledges mutations after Log never loses
// an acknowledged one to a crash. With nothing pending it is a no-op.
func (db *DB) Log() error {
	muts := db.feed.Drain()
	if len(muts) == 0 {
		return nil
	}
	if err := db.wal.Append(muts); err != nil {
		return err
	}
	db.pending += len(muts)
	return nil
}

// Commit folds every pending mutation into the segment store: Log any
// stragglers, freeze, rewrite the dirty segments under the manifest-swap
// protocol, and truncate the WAL. A crash anywhere inside Commit is safe —
// before the manifest rename the old epoch plus the logged WAL tail
// reconstructs the graph, after it the new epoch's replay skips the
// now-stale batches until the truncate removes them. A Commit that fails
// can simply be retried: every step is idempotent at a fixed epoch.
//
// The straggler Log is best-effort: mutations in the feed reach durability
// through the rewrite itself (the freeze below already holds them), and the
// Reset at the end repairs a log broken by an earlier torn append — so a
// WAL that can no longer accept records never wedges the commit that
// supersedes it. Callers needing the ack-after-Log guarantee call Log
// themselves before mutating further.
func (db *DB) Commit() (WriteStats, error) {
	db.Log()
	snap := db.g.FreezeSharded(db.opts)
	stats, err := writeUpdate(snap, db.dir, db.prev, &db.segBuf)
	if err != nil {
		return stats, err
	}
	db.prev = snap
	db.epoch = stats.Epoch
	db.pending = 0
	if err := db.wal.Reset(db.epoch); err != nil {
		return stats, err
	}
	return stats, nil
}

// Epoch returns the last committed store epoch, zero before the first
// Commit of a fresh database.
func (db *DB) Epoch() uint64 { return db.epoch }

// FreezeOptions returns the freeze geometry Commit snapshots with — the
// directory's own shard size for a reopened store. Callers that freeze the
// graph themselves (the durable engine's epoch handoff) use the same
// geometry so their snapshots share clean shards with the committed one.
func (db *DB) FreezeOptions() graph.FreezeOptions { return db.opts }

// Pending counts the mutations logged (or replayed) since the last Commit.
func (db *DB) Pending() int { return db.pending }

// Close releases the feed and the WAL file handle. It does not commit:
// logged-but-uncommitted mutations stay in the WAL and the next OpenDB
// replays them. Closing twice is a no-op.
func (db *DB) Close() error {
	if db.closed {
		return nil
	}
	db.closed = true
	db.feed.Close()
	return db.wal.Close()
}
