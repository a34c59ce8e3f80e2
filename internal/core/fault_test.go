package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/partition"
)

func TestFailProcessorRecoversExactly(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 61, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	rec, err := e.FailProcessor(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RowsLost == 0 {
		t.Fatal("processor 3 owned nothing")
	}
	if rec.RowsFromSnapshots == 0 {
		t.Fatal("no rows salvaged from survivor snapshots")
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestFailProcessorMidAnalysis(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 62, gen.Config{MaxWeight: 2})
	e := mustEngine(t, g, 8)
	e.Step()
	e.Step()
	if _, err := e.FailProcessor(0); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestFailProcessorThenDynamics(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 63, gen.Config{MaxWeight: 2})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	if _, err := e.FailProcessor(5); err != nil {
		t.Fatal(err)
	}
	// Dynamic changes while recovery is still propagating.
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 0, V: 149, W: 1}}); err != nil {
		t.Fatal(err)
	}
	batch := &VertexBatch{Count: 2, External: []AttachEdge{{New: 0, To: 10, W: 1}, {New: 1, To: 20, W: 1}}}
	if _, err := e.applyVertexAdditions(batch, &RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestFailProcessorOutOfRange(t *testing.T) {
	e := mustEngine(t, gen.Path(20), 4)
	if _, err := e.FailProcessor(4); err == nil {
		t.Fatal("expected error")
	}
	if _, err := e.FailProcessor(-1); err == nil {
		t.Fatal("expected error")
	}
}

func TestRebalanceIfNeeded(t *testing.T) {
	// Round-robin DD is balanced; skew it with a lopsided vertex batch.
	g := gen.BarabasiAlbert(120, 2, 64, gen.Config{})
	e, err := New(g, Options{P: 4, Seed: 7, Partitioner: partition.Multilevel{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	// All new vertices to one processor via a degenerate assigner.
	batch := &VertexBatch{Count: 60}
	for i := 1; i < batch.Count; i++ {
		batch.Internal = append(batch.Internal, BatchEdge{A: 0, B: i, W: 1})
	}
	batch.External = append(batch.External, AttachEdge{New: 0, To: 0, W: 1})
	if _, err := e.applyVertexAdditions(batch, pinnedPS{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if imb := e.Imbalance().VertexImbalance; imb < 1.5 {
		t.Fatalf("setup failed to skew the load: %.3f", imb)
	}
	ran, err := e.RebalanceIfNeeded(1.3)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("rebalance did not trigger")
	}
	mustRun(t, e)
	checkExact(t, e)
	if imb := e.Imbalance().VertexImbalance; imb > 1.3 {
		t.Fatalf("rebalance left imbalance %.3f", imb)
	}
	// Below threshold: no-op.
	ran, err = e.RebalanceIfNeeded(1.3)
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("rebalance re-triggered while balanced")
	}
}

func TestRebalanceRejectsBadThreshold(t *testing.T) {
	e := mustEngine(t, gen.Path(20), 4)
	if _, err := e.RebalanceIfNeeded(0.5); err == nil {
		t.Fatal("expected error")
	}
}

// pinnedPS assigns every batch vertex to processor 0 (test-only skew).
type pinnedPS struct{}

func (pinnedPS) Name() string { return "pinned" }
func (pinnedPS) Assign(e *Engine, batch *VertexBatch) []int {
	return make([]int, batch.Count)
}

// TestPropertyFailureRecoveryExact: failures at random points of random
// dynamic schedules never corrupt the converged result.
func TestPropertyFailureRecoveryExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbert(60+rng.Intn(80), 1+rng.Intn(2), rng.Int63(), gen.Config{MaxWeight: 4})
		p := 2 + rng.Intn(10)
		e, err := New(g, Options{P: p, Seed: rng.Int63()})
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			for s := rng.Intn(4); s > 0 && !e.Converged(); s-- {
				e.Step()
			}
			if _, err := e.FailProcessor(rng.Intn(p)); err != nil {
				return false
			}
			if rng.Intn(2) == 0 {
				adds := []graph.EdgeTriple{{
					U: graph.ID(rng.Intn(e.Graph().NumIDs())),
					V: graph.ID(rng.Intn(e.Graph().NumIDs())),
					W: int32(1 + rng.Intn(4)),
				}}
				if adds[0].U != adds[0].V {
					if err := e.applyEdgeAdditions(adds); err != nil {
						return false
					}
				}
			}
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		want := exactScores(e)
		got := e.Scores()
		for _, v := range e.Graph().Vertices() {
			if d := got.Classic[v] - want.Classic[v]; d > 1e-12 || d < -1e-12 {
				t.Logf("seed %d: closeness mismatch at %d", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(65))}); err != nil {
		t.Fatal(err)
	}
}
