package core

import (
	"math/rand"
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

// soundness: every estimate must be >= the exact distance on the current graph.
func firstUnsound(t *testing.T, e *Engine) (graph.ID, graph.ID, int32, int32, bool) {
	t.Helper()
	exact := sssp.APSP(e.Graph(), 0)
	got := e.Distances()
	for v, row := range got {
		ex := exact[v]
		for u := range ex {
			if row[u] < ex[u] {
				return v, graph.ID(u), row[u], ex[u], true
			}
		}
	}
	return 0, 0, 0, 0, false
}

func TestSoundnessAfterEveryOp(t *testing.T) {
	seed := int64(-8107624553222931745)
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(80)
	m := 1 + rng.Intn(3)
	g := gen.BarabasiAlbert(n, m, rng.Int63(), gen.Config{MaxWeight: int32(1 + rng.Intn(5))})
	p := 1 + rng.Intn(12)
	e, err := New(g, Options{P: p, Seed: rng.Int63()})
	if err != nil {
		t.Fatal(err)
	}
	rr := &RoundRobinPS{}
	ops := 3 + rng.Intn(6)
	t.Logf("n=%d m=%d P=%d ops=%d", n, m, p, ops)
	for i := 0; i < ops; i++ {
		for s := rng.Intn(3); s > 0 && !e.Converged(); s-- {
			e.Step()
		}
		op := rng.Intn(6)
		t.Logf("op#%d kind=%d step=%d", i, op, e.StepCount())
		switch op {
		case 0:
			var adds []graph.EdgeTriple
			for k := 0; k < 1+rng.Intn(4); k++ {
				u := graph.ID(rng.Intn(e.Graph().NumIDs()))
				v := graph.ID(rng.Intn(e.Graph().NumIDs()))
				if u != v && e.Graph().Has(u) && e.Graph().Has(v) {
					adds = append(adds, graph.EdgeTriple{U: u, V: v, W: int32(1 + rng.Intn(5))})
				}
			}
			if err := e.applyEdgeAdditions(adds); err != nil {
				t.Fatal(err)
			}
		case 1:
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
				t.Fatal(err)
			}
		case 2:
			edges := e.Graph().Edges()
			if len(edges) == 0 {
				continue
			}
			ed := edges[rng.Intn(len(edges))]
			if err := setWeight(e, ed.U, ed.V, int32(1+rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		case 3:
			batch := randomBatch(rng, e.Graph())
			var ps ProcessorAssigner = rr
			if rng.Intn(2) == 0 {
				ps = &CutEdgePS{Seed: rng.Int63()}
			}
			if _, err := e.applyVertexAdditions(batch, ps); err != nil {
				t.Fatal(err)
			}
		case 4:
			live := e.Graph().Vertices()
			if len(live) < 10 {
				continue
			}
			victim := live[rng.Intn(len(live))]
			if err := e.removeVertices([]graph.ID{victim}); err != nil {
				t.Fatal(err)
			}
		case 5:
			var batch *VertexBatch
			if rng.Intn(2) == 0 {
				batch = randomBatch(rng, e.Graph())
			}
			if _, err := e.repartition(batch); err != nil {
				t.Fatal(err)
			}
		}
		if v, u, got, want, bad := firstUnsound(t, e); bad {
			t.Fatalf("after op#%d kind=%d: d(%d,%d)=%d below true %d", i, op, v, u, got, want)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if v, u, got, want, bad := firstUnsound(t, e); bad {
		t.Fatalf("after final run: d(%d,%d)=%d below true %d", v, u, got, want)
	}
}
