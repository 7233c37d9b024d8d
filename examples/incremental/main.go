// Incremental example: keep support answers warm while the data graph keeps
// growing. A delta context maintains the streamed MNI state of one pattern
// across edge inserts, and a warm Engine session re-answers the full
// frequent-pattern question after every mutation batch — both without
// re-enumerating the graph from scratch, and both provably identical to a
// cold restart.
//
// Run with:
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"time"

	support "repro"
)

func main() {
	// A preferential-attachment graph stands in for a growing social network:
	// new members arrive and new links form, but support questions must stay
	// answerable between arrivals.
	g := support.BarabasiAlbert(400, 2, 3, 7)
	fmt.Printf("data graph: %s\n\n", g)

	// Part 1: one pattern, answered continuously. The delta context holds the
	// streamed MNI domain tables and applies exact deltas per mutation batch.
	p, err := support.NewPattern(support.NewGraphBuilder("wedge").
		Vertex(0, 1).Vertex(1, 2).Vertex(2, 3).
		Path(0, 1, 2).
		MustBuild())
	if err != nil {
		log.Fatal(err)
	}
	d, err := support.NewDeltaContext(g, p, support.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	mni, err := support.NewMeasure(support.MNI)
	if err != nil {
		log.Fatal(err)
	}

	report := func(when string) {
		r, err := mni.Compute(d.Context())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s MNI=%-4g occurrences=%-6d instances=%d\n",
			when, r.Value, d.NumOccurrences(), d.NumInstances())
	}
	report("initial enumeration:")

	// The network grows: each batch adds a member wired into the graph plus a
	// few new friendships, then Refresh applies the delta.
	ids := g.SortedVertices()
	next := support.VertexID(10_000)
	for batch := 0; batch < 3; batch++ {
		g.MustAddVertex(next, support.Label(batch%3+1))
		g.MustAddEdge(next, ids[batch*17])
		g.MustAddEdge(next, ids[batch*41+5])
		if u, v := ids[batch*13+2], ids[batch*29+80]; !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
		next++
		if err := d.Refresh(); err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("after mutation batch %d:", batch+1))
	}
	st := d.Stats()
	fmt.Printf("maintenance: %d refreshes, %d delta, %d full rebuilds, last ball %d vertices\n\n",
		st.Refreshes, st.DeltaRefreshes, st.FullRebuilds, st.LastBallVertices)

	// Part 2: the whole mining question kept warm. From here on the graph
	// belongs to an Engine: mutations go through Update, which refreezes and
	// publishes the next epoch. The session tracks every evaluated candidate
	// (the frequent set and the pruned boundary) with a live delta context,
	// so Refresh never pays a cold re-enumeration for a pattern it has seen.
	eng, err := support.NewEngine(g, support.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	spec := support.MineSpec{MinSupport: 8, MaxPatternSize: 3}
	sess, err := eng.OpenSession(spec)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	res := sess.Result()
	fmt.Printf("initial mine: %d frequent patterns (%d candidates tracked) in %s\n",
		res.Stats.Frequent, sess.TrackedPatterns(), res.Stats.Elapsed.Round(time.Millisecond))

	if _, err := eng.Update(func(g *support.Graph) error {
		for _, v := range ids[:25] {
			if w := ids[len(ids)-1-int(v)]; v != w && !g.HasEdge(v, w) {
				g.MustAddEdge(v, w)
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	res, _, err = sess.Refresh()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 25 inserts: %d frequent patterns via delta refresh in %s\n",
		res.Stats.Frequent, res.Stats.Elapsed.Round(time.Millisecond))

	// The warm answers are exact: a cold re-mine of the new epoch agrees.
	resp, err := eng.Do(&support.Request{Mine: &spec})
	if err != nil {
		log.Fatal(err)
	}
	cold := resp.Mining
	fmt.Printf("cold re-mine agreement: %v (%d patterns, %s)\n",
		len(cold.Patterns) == len(res.Patterns), len(cold.Patterns), cold.Stats.Elapsed.Round(time.Millisecond))
}
