package sssp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/pqueue"
)

func TestDijkstraPath(t *testing.T) {
	g := gen.Path(5)
	d := Dijkstra(g, 0)
	for i := 0; i < 5; i++ {
		if d[i] != int32(i) {
			t.Fatalf("d[%d] = %d", i, d[i])
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 1, 1)
	d := Dijkstra(g, 0)
	if d[1] != 3 {
		t.Fatalf("d[1] = %d, want 3 (detour beats direct)", d[1])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	d := Dijkstra(g, 0)
	if d[2] != Inf {
		t.Fatalf("d[2] = %d, want Inf", d[2])
	}
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 5, gen.Config{MaxWeight: 7})
	for _, src := range []graph.ID{0, 50, 119} {
		a := Dijkstra(g, src)
		b := BellmanFord(g, src)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("src %d: dijkstra %d vs bellman-ford %d at %d", src, a[v], b[v], v)
			}
		}
	}
}

func TestBFSEqualsDijkstraUnitWeights(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 6, gen.Config{})
	a := BFS(g, 3)
	b := Dijkstra(g, 3)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("BFS %d vs Dijkstra %d at %d", a[v], b[v], v)
		}
	}
}

func TestAPSPSymmetric(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 7, gen.Config{MaxWeight: 3})
	d := APSP(g, 2)
	for u, row := range d {
		for v := range row {
			if other := d[graph.ID(v)]; other != nil && other[u] != row[v] {
				t.Fatalf("asymmetry d(%d,%d)=%d d(%d,%d)=%d", u, v, row[v], v, u, other[u])
			}
		}
	}
}

func TestAPSPSkipsRemoved(t *testing.T) {
	g := gen.Path(6)
	g.RemoveVertex(2)
	d := APSP(g, 0)
	if _, ok := d[2]; ok {
		t.Fatal("removed vertex has a row")
	}
	if d[0][5] != Inf { // path broken at 2
		t.Fatalf("d(0,5) = %d, want Inf", d[0][5])
	}
}

func TestDijkstraLocalRespectsMask(t *testing.T) {
	// 0-1-2-3-4 path; local = {0,1}, ext boundary = {2}.
	g := gen.Path(5)
	local := []bool{true, true, false, false, false}
	dist := make([]int32, 5)
	h := pqueue.New(5)
	DijkstraLocal(g, 0, local, dist, h)
	if dist[1] != 1 || dist[2] != 2 {
		t.Fatalf("local distances wrong: %v", dist)
	}
	// 3 is beyond the boundary: unreachable in the local subgraph.
	if dist[3] != Inf || dist[4] != Inf {
		t.Fatalf("mask leak: %v", dist)
	}
}

func TestDijkstraLocalBridgesThroughBoundary(t *testing.T) {
	// Triangle detour through an external boundary vertex: 0-2 direct w=10,
	// 0-1(ext)-2 w=1+1. Both 0 and 2 local, 1 external: the bridge counts.
	g := graph.New(3)
	g.AddEdge(0, 2, 10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	local := []bool{true, false, true}
	dist := make([]int32, 3)
	h := pqueue.New(3)
	DijkstraLocal(g, 0, local, dist, h)
	if dist[2] != 2 {
		t.Fatalf("d(0,2) = %d, want 2 via boundary bridge", dist[2])
	}
}

func TestDijkstraLocalNoEdgeBetweenBoundaries(t *testing.T) {
	// 0 local; 1,2 external; edge {1,2} must NOT be traversed (it has no
	// local endpoint, so it is not in E_i).
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	local := []bool{true, false, false, false}
	dist := make([]int32, 4)
	h := pqueue.New(4)
	DijkstraLocal(g, 0, local, dist, h)
	if dist[1] != 1 {
		t.Fatalf("d(0,1) = %d", dist[1])
	}
	if dist[2] != Inf {
		t.Fatalf("d(0,2) = %d, want Inf (edge between two boundaries)", dist[2])
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over edges
// and match Bellman-Ford on random weighted graphs.
func TestPropertyDijkstraCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := gen.ErdosRenyiM(n, n+rng.Intn(2*n), rng.Int63(), gen.Config{MaxWeight: int32(1 + rng.Intn(9))})
		src := graph.ID(rng.Intn(n))
		d := Dijkstra(g, src)
		// Edge consistency: |d(u)-d(v)| <= w(u,v).
		for _, e := range g.Edges() {
			if d[e.U] != Inf && d[e.V] != Inf {
				diff := d[e.U] - d[e.V]
				if diff < 0 {
					diff = -diff
				}
				if diff > e.W {
					return false
				}
			}
		}
		b := BellmanFord(g, src)
		for v := range d {
			if d[v] != b[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
