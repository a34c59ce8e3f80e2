package main

import (
	"math/rand"

	"aacc/internal/core"
	"aacc/internal/graph"
)

// The generators below belong to the benchmark, not to internal/gen or
// internal/workload: a change to the repository's own generators must not
// move the benchmark's numbers, so the inputs are made here from -seed alone.

// subSeed derives an independent stream seed from the run seed (splitmix64).
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// baGraph generates a connected Barabási–Albert graph with unit weights: a
// path over the first m+1 vertices, then every later vertex attaches to m
// distinct earlier vertices chosen in proportion to their degree.
func baGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewWithCapacity(n, n)
	ends := make([]graph.ID, 0, 2*n*m) // every edge endpoint, once per incidence
	for v := 1; v <= m && v < n; v++ {
		g.AddEdge(graph.ID(v-1), graph.ID(v), 1)
		ends = append(ends, graph.ID(v-1), graph.ID(v))
	}
	picks := make([]graph.ID, 0, m)
	for v := m + 1; v < n; v++ {
		picks = picks[:0]
	pick:
		for len(picks) < m {
			t := ends[rng.Intn(len(ends))]
			for _, p := range picks {
				if p == t {
					continue pick
				}
			}
			picks = append(picks, t)
		}
		for _, t := range picks {
			g.AddEdge(graph.ID(v), t, 1)
			ends = append(ends, graph.ID(v), t)
		}
	}
	return g
}

// pickEdges returns k distinct existing edges of g chosen by rng, in the
// order drawn.
func pickEdges(g graph.View, k int, rng *rand.Rand) []graph.EdgeTriple {
	all := g.Edges()
	if k > len(all) {
		k = len(all)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:k]
}

func pairsOf(edges []graph.EdgeTriple) [][2]graph.ID {
	out := make([][2]graph.ID, len(edges))
	for i, e := range edges {
		out[i] = [2]graph.ID{e.U, e.V}
	}
	return out
}

// churn is the mixed mutation stream of ingest-churn: 60% additions of new
// edges (weight 1..3) between random vertices, 25% eager deletions of edges
// the stream itself added, 15% re-adds of a stream-owned edge at weight 1
// (always weakly improving). The kinds follow a fixed schedule of period 20,
// so every window of a run holds the same number of deletions, the expensive
// kind, and the seed only chooses the vertices and edges. The stream never
// touches an edge of the starting graph, so no operation can fail; while it
// owns no edge it only adds.
type churn struct {
	rng  *rand.Rand
	n    int
	i    int                  // mutations emitted so far
	base map[[2]graph.ID]bool // edges of the starting graph
	live [][2]graph.ID        // stream-owned edges now present
	at   map[[2]graph.ID]int  // position of each in live
}

func newChurn(g graph.View, seed int64) *churn {
	c := &churn{
		rng:  rand.New(rand.NewSource(seed)),
		n:    g.NumIDs(),
		base: make(map[[2]graph.ID]bool, g.NumEdges()),
		at:   make(map[[2]graph.ID]int),
	}
	for _, e := range g.Edges() {
		c.base[[2]graph.ID{e.U, e.V}] = true
	}
	return c
}

// next returns the stream's next mutation and applies it to mirror, the
// benchmark's own copy of the graph that the final oracle is built from.
func (c *churn) next(mirror *graph.Graph) core.Mutation {
	slot := c.i % 20
	c.i++
	if len(c.live) > 0 {
		p := c.live[c.rng.Intn(len(c.live))]
		switch slot {
		case 3, 7, 11, 15, 19: // 25%: eager delete
			last := c.live[len(c.live)-1]
			c.live[c.at[p]], c.at[last] = last, c.at[p]
			c.live = c.live[:len(c.live)-1]
			delete(c.at, p)
			mirror.RemoveEdge(p[0], p[1])
			return core.EdgeDeleteEager(p)
		case 5, 10, 16: // 15%: re-add at weight 1
			mirror.AddEdge(p[0], p[1], 1)
			return core.EdgeAdd(graph.EdgeTriple{U: p[0], V: p[1], W: 1})
		}
	}
	for {
		u, v := graph.ID(c.rng.Intn(c.n)), graph.ID(c.rng.Intn(c.n))
		if u > v {
			u, v = v, u
		}
		p := [2]graph.ID{u, v}
		if _, owned := c.at[p]; u == v || c.base[p] || owned {
			continue
		}
		c.at[p] = len(c.live)
		c.live = append(c.live, p)
		w := int32(1 + c.rng.Intn(3))
		mirror.AddEdge(u, v, w)
		return core.EdgeAdd(graph.EdgeTriple{U: u, V: v, W: w})
	}
}
