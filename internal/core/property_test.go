package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

// TestPropertyDynamicEqualsStatic is the system's defining property: for a
// random initial graph and a random interleaving of dynamic operations
// (edge additions, edge deletions, weight changes, vertex additions with
// random strategies, vertex deletions, repartitions) applied at random
// points of the analysis, the converged distances equal a from-scratch
// sequential Dijkstra APSP on the final graph.
func TestPropertyDynamicEqualsStatic(t *testing.T) {
	f := func(seed int64) bool {
		return dynamicEqualsStatic(t, seed)
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Rand:     rand.New(rand.NewSource(20160523)),
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func dynamicEqualsStatic(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(80)
	m := 1 + rng.Intn(3)
	g := gen.BarabasiAlbert(n, m, rng.Int63(), gen.Config{MaxWeight: int32(1 + rng.Intn(5))})
	p := 1 + rng.Intn(12)
	e, err := New(g, Options{P: p, Seed: rng.Int63()})
	if err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	rr := &RoundRobinPS{}
	ops := 3 + rng.Intn(6)
	for i := 0; i < ops; i++ {
		// Random progress before each operation.
		for s := rng.Intn(3); s > 0 && !e.Converged(); s-- {
			e.Step()
		}
		op := rng.Intn(7)
		if testing.Verbose() {
			t.Logf("seed %d op#%d kind=%d step=%d", seed, i, op, e.StepCount())
		}
		switch op {
		case 6: // processor failure and checkpoint-free recovery
			if _, err := e.FailProcessor(rng.Intn(p)); err != nil {
				t.Logf("seed %d fail: %v", seed, err)
				return false
			}
		case 0: // edge additions
			var adds []graph.EdgeTriple
			for k := 0; k < 1+rng.Intn(4); k++ {
				u := graph.ID(rng.Intn(e.Graph().NumIDs()))
				v := graph.ID(rng.Intn(e.Graph().NumIDs()))
				if u != v && e.Graph().Has(u) && e.Graph().Has(v) {
					adds = append(adds, graph.EdgeTriple{U: u, V: v, W: int32(1 + rng.Intn(5))})
				}
			}
			if err := e.applyEdgeAdditions(adds); err != nil {
				t.Logf("seed %d add: %v", seed, err)
				return false
			}
		case 1: // edge deletions
			edges := e.Graph().Edges()
			if len(edges) == 0 {
				continue
			}
			var del [][2]graph.ID
			for k := 0; k < 1+rng.Intn(3); k++ {
				ed := edges[rng.Intn(len(edges))]
				del = append(del, [2]graph.ID{ed.U, ed.V})
			}
			if err := e.applyEdgeDeletions(del); err != nil {
				t.Logf("seed %d del: %v", seed, err)
				return false
			}
		case 2: // weight change
			edges := e.Graph().Edges()
			if len(edges) == 0 {
				continue
			}
			ed := edges[rng.Intn(len(edges))]
			if err := setWeight(e, ed.U, ed.V, int32(1+rng.Intn(8))); err != nil {
				t.Logf("seed %d weight: %v", seed, err)
				return false
			}
		case 3: // vertex additions
			batch := randomBatch(rng, e.Graph())
			var ps ProcessorAssigner = rr
			if rng.Intn(2) == 0 {
				ps = &CutEdgePS{Seed: rng.Int63()}
			}
			if _, err := e.applyVertexAdditions(batch, ps); err != nil {
				t.Logf("seed %d vadd: %v", seed, err)
				return false
			}
		case 4: // vertex deletion (keep at least a handful of vertices)
			live := e.Graph().Vertices()
			if len(live) < 10 {
				continue
			}
			victim := live[rng.Intn(len(live))]
			if err := e.removeVertices([]graph.ID{victim}); err != nil {
				t.Logf("seed %d vdel: %v", seed, err)
				return false
			}
		case 5: // repartition, sometimes with a batch
			var batch *VertexBatch
			if rng.Intn(2) == 0 {
				batch = randomBatch(rng, e.Graph())
			}
			if _, err := e.repartition(batch); err != nil {
				t.Logf("seed %d repart: %v", seed, err)
				return false
			}
		}
	}
	if _, err := e.Run(); err != nil {
		t.Logf("seed %d run: %v", seed, err)
		return false
	}
	want := sssp.APSP(e.Graph(), 0)
	got := e.Distances()
	if len(got) != len(want) {
		t.Logf("seed %d: row count %d != %d", seed, len(got), len(want))
		return false
	}
	for v, wrow := range want {
		grow := got[v]
		if grow == nil {
			t.Logf("seed %d: missing row %d", seed, v)
			return false
		}
		for u := range wrow {
			if grow[u] != wrow[u] {
				t.Logf("seed %d: d(%d,%d) = %d, want %d", seed, v, u, grow[u], wrow[u])
				return false
			}
		}
	}
	return true
}

func randomBatch(rng *rand.Rand, g graph.View) *VertexBatch {
	count := 1 + rng.Intn(5)
	b := &VertexBatch{Count: count}
	for k := 0; k < rng.Intn(2*count); k++ {
		a, c := rng.Intn(count), rng.Intn(count)
		if a != c {
			b.Internal = append(b.Internal, BatchEdge{A: a, B: c, W: int32(1 + rng.Intn(4))})
		}
	}
	live := g.Vertices()
	for k := 0; k < 1+rng.Intn(3); k++ {
		b.External = append(b.External, AttachEdge{
			New: rng.Intn(count),
			To:  live[rng.Intn(len(live))],
			W:   int32(1 + rng.Intn(4)),
		})
	}
	return b
}

// TestPropertyAnytimeUpperBound: at every intermediate step of a static
// analysis, every estimate is an upper bound on the true distance.
func TestPropertyAnytimeUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		g := gen.BarabasiAlbert(n, 1+rng.Intn(2), rng.Int63(), gen.Config{MaxWeight: 4})
		exact := sssp.APSP(g, 0)
		e, err := New(g, Options{P: 2 + rng.Intn(10), Seed: rng.Int63()})
		if err != nil {
			return false
		}
		for !e.Converged() {
			got := e.Distances()
			for v, row := range got {
				ex := exact[v]
				for u := range row {
					if row[u] < ex[u] {
						t.Logf("seed %d: d(%d,%d) estimate %d below true %d", seed, v, u, row[u], ex[u])
						return false
					}
				}
			}
			e.Step()
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDistanceSymmetry: converged distances on an undirected graph
// are symmetric across processors: d(u,v) == d(v,u) even though the two
// entries live in different rows on different processors.
func TestPropertyDistanceSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbert(60+rng.Intn(60), 2, rng.Int63(), gen.Config{MaxWeight: 6})
		e, err := New(g, Options{P: 2 + rng.Intn(8), Seed: rng.Int63()})
		if err != nil {
			return false
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		d := e.Distances()
		for u, row := range d {
			for v := range row {
				if row[v] == dv.Inf {
					continue
				}
				if other := d[graph.ID(v)]; other != nil && other[u] != row[v] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
