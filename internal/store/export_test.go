package store

import "repro/internal/graph"

// CommittedSnapshot returns the snapshot db's manifest was committed from,
// which the next Commit's freeze shares clean shards with.
func CommittedSnapshot(db *DB) *graph.Snapshot { return db.prev }
