package graph

import (
	"fmt"
	"sync"
)

// MutationKind discriminates the structural mutations a Graph records into
// subscribed MutationFeeds.
type MutationKind uint8

// The mutation kinds delivered through a MutationFeed. Renames (SetName) are
// not structural and are never recorded, and neither are failed mutations:
// a rejected duplicate add or a removal of an absent edge/vertex changes
// nothing and therefore reaches no feed.
const (
	// MutVertexAdded records a successful AddVertex; U is the new vertex and
	// Label its label.
	MutVertexAdded MutationKind = iota
	// MutEdgeAdded records a successful AddEdge; U and V are the endpoints in
	// normalized (U <= V) order.
	MutEdgeAdded
	// MutEdgeRemoved records a successful RemoveEdge; U and V are the former
	// endpoints in normalized (U <= V) order. RemoveVertex emits one of these
	// per cascaded incident edge before its own MutVertexRemoved.
	MutEdgeRemoved
	// MutVertexRemoved records a successful RemoveVertex; U is the removed
	// vertex and Label the label it carried, so subscribers can reverse or
	// re-apply the mutation without consulting the (already mutated) graph.
	MutVertexRemoved
)

// Mutation is one structural graph mutation as delivered by a MutationFeed.
type Mutation struct {
	// Kind says what happened.
	Kind MutationKind
	// U is the added or removed vertex (MutVertexAdded, MutVertexRemoved) or
	// the smaller edge endpoint (MutEdgeAdded, MutEdgeRemoved).
	U VertexID
	// V is the larger edge endpoint; zero for vertex mutations.
	V VertexID
	// Label is the label of the added or removed vertex; zero for edge
	// mutations.
	Label Label
}

// Apply re-applies a recorded mutation to g, strictly: a mutation that does
// not apply cleanly (duplicate add, removal of an absent edge or vertex, an
// unknown kind) is an error rather than a no-op, because replay streams —
// the store's WAL in particular — record only mutations that succeeded, so a
// failed replay means the stream and the graph have diverged.
//
// Note the asymmetry with RemoveVertex: a MutVertexRemoved record carries no
// cascade (the incident-edge removals were recorded individually before it),
// so Apply requires the vertex to be isolated by the time its record replays —
// exactly the state a faithful replay produces.
func (g *Graph) Apply(m Mutation) error {
	switch m.Kind {
	case MutVertexAdded:
		if g.HasVertex(m.U) {
			return fmt.Errorf("graph %q: replayed vertex add %d but the vertex already exists", g.name, m.U)
		}
		return g.AddVertex(m.U, m.Label)
	case MutEdgeAdded:
		return g.AddEdge(m.U, m.V)
	case MutEdgeRemoved:
		return g.RemoveEdge(m.U, m.V)
	case MutVertexRemoved:
		if g.Degree(m.U) != 0 {
			return fmt.Errorf("graph %q: replayed vertex removal %d but the vertex still has %d incident edges", g.name, m.U, g.Degree(m.U))
		}
		return g.RemoveVertex(m.U)
	}
	return fmt.Errorf("graph %q: replayed mutation with unknown kind %d", g.name, m.Kind)
}

// MutationFeed is a per-subscriber, append-only buffer of the structural
// mutations applied to a Graph since the feed was created (or last drained).
// It is the pull-based subscription behind incremental measure maintenance
// (core.DeltaContext): the graph appends every successful mutation — adds
// and removals alike — to all open feeds, and subscribers call Drain to
// consume the batch they have not yet processed.
//
// A feed's buffer grows with the number of undrained mutations, so long-lived
// subscribers should drain on every synchronization point and Close feeds
// they no longer need. Drain and Close are safe to call concurrently with
// each other; like all Graph reads, they must not race with the mutation
// methods themselves.
type MutationFeed struct {
	g *Graph

	mu  sync.Mutex
	buf []Mutation
}

// Subscribe registers a new mutation feed on the graph. Every structural
// mutation applied after this call is appended to the returned feed until it
// is closed. Mutations applied before the subscription are not replayed:
// subscribers snapshot the current state first (e.g. by freezing and
// enumerating) and use the feed for everything after.
func (g *Graph) Subscribe() *MutationFeed {
	f := &MutationFeed{g: g}
	g.feedMu.Lock()
	g.feeds = append(g.feeds, f)
	g.feedMu.Unlock()
	return f
}

// OpenFeeds returns the number of mutation feeds currently subscribed to the
// graph. Long-lived servers use it as a leak check: every mining session and
// every standalone delta context owns one feed, and closing them must return
// this count to its baseline.
func (g *Graph) OpenFeeds() int {
	g.feedMu.Lock()
	n := len(g.feeds)
	g.feedMu.Unlock()
	return n
}

// notifyFeeds appends a mutation to every open feed. It is called from the
// mutation methods after the graph state has been updated.
func (g *Graph) notifyFeeds(m Mutation) {
	mMutations.Inc()
	g.feedMu.Lock()
	feeds := g.feeds
	g.feedMu.Unlock()
	for _, f := range feeds {
		f.mu.Lock()
		f.buf = append(f.buf, m)
		f.mu.Unlock()
	}
}

// Drain returns the mutations recorded since the previous Drain (or since
// Subscribe) in application order and resets the feed's buffer. It returns
// nil when nothing happened.
//
//gvet:hotpath
func (f *MutationFeed) Drain() []Mutation {
	f.mu.Lock()
	out := f.buf
	f.buf = nil
	f.mu.Unlock()
	return out
}

// Pending returns the number of undrained mutations.
func (f *MutationFeed) Pending() int {
	f.mu.Lock()
	n := len(f.buf)
	f.mu.Unlock()
	return n
}

// Close unsubscribes the feed from its graph and discards any undrained
// mutations. Closing an already-closed feed is a no-op.
func (f *MutationFeed) Close() {
	g := f.g
	if g == nil {
		return
	}
	f.g = nil
	g.feedMu.Lock()
	for i, other := range g.feeds {
		if other == f {
			g.feeds = append(g.feeds[:i], g.feeds[i+1:]...)
			break
		}
	}
	g.feedMu.Unlock()
	f.mu.Lock()
	f.buf = nil
	f.mu.Unlock()
}
