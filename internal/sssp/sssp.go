// Package sssp implements the shortest-path kernels the anytime-anywhere
// engine composes: Dijkstra (the paper's initial-approximation algorithm),
// a parallel multi-source APSP driver (the paper's "multithreaded Dijkstra"),
// BFS for unweighted graphs, Bellman–Ford as an independent test oracle, and
// Floyd–Warshall for the local distance-vector refresh used in the
// recombination phase.
package sssp

import (
	"runtime"
	"sync"

	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/pqueue"
)

// Inf re-exports the shared "no path" distance.
const Inf = dv.Inf

// Dijkstra computes single-source shortest path distances from src over all
// live vertices of g. Unreachable (and tombstoned) vertices get Inf.
func Dijkstra(g *graph.Graph, src graph.ID) []int32 {
	dist := newInfSlice(g.NumIDs())
	h := pqueue.New(g.NumIDs())
	DijkstraInto(g, src, dist, h)
	return dist
}

// DijkstraInto is the allocation-free core of Dijkstra: dist must have length
// g.NumIDs() and is fully overwritten; h must have capacity g.NumIDs() and is
// reset. This is the kernel the engine reuses across many sources.
func DijkstraInto(g *graph.Graph, src graph.ID, dist []int32, h *pqueue.Heap) {
	for i := range dist {
		dist[i] = Inf
	}
	h.Reset()
	dist[src] = 0
	h.Push(src, 0)
	for h.Len() > 0 {
		v, d := h.Pop()
		if int64(dist[v]) < d {
			continue
		}
		for _, e := range g.Neighbors(v) {
			nd := d + int64(e.W)
			if nd < int64(dist[e.To]) {
				dist[e.To] = int32(nd)
				h.PushOrDecrease(e.To, nd)
			}
		}
	}
}

// DijkstraLocal runs Dijkstra from src over the paper's "local subgraph":
// the vertices with local[v]=true plus their external boundary vertices,
// using every edge with at least one local endpoint. External boundary
// vertices act only as bridges: they are entered from local vertices and
// expanded only toward local vertices, exactly as the DD phase defines
// G_i = (V_i ∪ B_i, E_i). dist must have length g.NumIDs() and is fully
// overwritten; h must have capacity g.NumIDs().
func DijkstraLocal(g *graph.Graph, src graph.ID, local []bool, dist []int32, h *pqueue.Heap) {
	for i := range dist {
		dist[i] = Inf
	}
	h.Reset()
	dist[src] = 0
	h.Push(src, 0)
	for h.Len() > 0 {
		v, d := h.Pop()
		if int64(dist[v]) < d {
			continue
		}
		expandAll := local[v]
		for _, e := range g.Neighbors(v) {
			if !expandAll && !local[e.To] {
				continue // edge between two external boundary vertices
			}
			nd := d + int64(e.W)
			if nd < int64(dist[e.To]) {
				dist[e.To] = int32(nd)
				h.PushOrDecrease(e.To, nd)
			}
		}
	}
}

// BFS computes unit-weight shortest path hop counts from src.
func BFS(g *graph.Graph, src graph.ID) []int32 {
	dist := newInfSlice(g.NumIDs())
	dist[src] = 0
	queue := make([]graph.ID, 0, g.NumVertices())
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range g.Neighbors(v) {
			if dist[e.To] == Inf {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// BellmanFord computes single-source distances by edge relaxation. It is
// O(V·E) and exists purely as an independent oracle for tests.
func BellmanFord(g *graph.Graph, src graph.ID) []int32 {
	dist := newInfSlice(g.NumIDs())
	dist[src] = 0
	edges := g.Edges()
	for iter := 0; iter < g.NumIDs(); iter++ {
		changed := false
		for _, e := range edges {
			if d := dv.SatAdd(dist[e.U], e.W); d < dist[e.V] {
				dist[e.V] = d
				changed = true
			}
			if d := dv.SatAdd(dist[e.V], e.W); d < dist[e.U] {
				dist[e.U] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// APSP computes all-pairs shortest paths with one Dijkstra per live vertex,
// fanned out over workers goroutines (<=0 means GOMAXPROCS). The result maps
// global vertex ID to its distance row; only live vertices get rows.
// This is both the engine's baseline-restart kernel and the test oracle.
// It accepts any read-only view (e.g. core.Engine.Graph()); the per-edge
// inner loops run on the concrete graph behind it.
func APSP(v graph.View, workers int) map[graph.ID][]int32 {
	g := graph.Materialize(v)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sources := g.Vertices()
	out := make(map[graph.ID][]int32, len(sources))
	rows := make([][]int32, len(sources))
	var wg sync.WaitGroup
	next := make(chan int, len(sources))
	for i := range sources {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := pqueue.New(g.NumIDs())
			for i := range next {
				dist := make([]int32, g.NumIDs())
				DijkstraInto(g, sources[i], dist, h)
				rows[i] = dist
			}
		}()
	}
	wg.Wait()
	for i, s := range sources {
		out[s] = rows[i]
	}
	return out
}

func newInfSlice(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = Inf
	}
	return s
}
