package core

import (
	"testing"

	"aacc/internal/centrality"
	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/partition"
	"aacc/internal/sssp"
)

// checkExact verifies that the engine's converged distances equal the
// sequential Dijkstra oracle on the engine's current graph — the defining
// correctness property of the whole system.
func checkExact(t *testing.T, e *Engine) {
	t.Helper()
	got := e.Distances()
	want := sssp.APSP(e.Graph(), 0)
	if len(got) != len(want) {
		t.Fatalf("distance rows: got %d, want %d", len(got), len(want))
	}
	for v, wrow := range want {
		grow := got[v]
		if grow == nil {
			t.Fatalf("missing row for vertex %d", v)
		}
		for u := range wrow {
			if grow[u] != wrow[u] {
				t.Fatalf("d(%d,%d) = %d, want %d", v, u, grow[u], wrow[u])
			}
		}
	}
}

func exactScores(e *Engine) centrality.Scores {
	return centrality.FromDistances(sssp.APSP(e.Graph(), 0), e.Graph().Vertices(), e.Graph().NumIDs())
}

func mustEngine(t *testing.T, g *graph.Graph, p int) *Engine {
	t.Helper()
	e, err := New(g, Options{P: p, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustRun(t *testing.T, e *Engine) int {
	t.Helper()
	steps, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// setWeight is the single-edge form of setEdgeWeights.
func setWeight(e *Engine, u, v graph.ID, w int32) error {
	return e.setEdgeWeights([]graph.EdgeTriple{{U: u, V: v, W: w}})
}

func TestStaticConvergesToExactPath(t *testing.T) {
	e := mustEngine(t, gen.Path(20), 4)
	mustRun(t, e)
	checkExact(t, e)
}

func TestStaticConvergesToExactGrid(t *testing.T) {
	e := mustEngine(t, gen.Grid(8, 9, gen.Config{MaxWeight: 5}), 6)
	mustRun(t, e)
	checkExact(t, e)
}

func TestStaticConvergesToExactScaleFree(t *testing.T) {
	g := gen.BarabasiAlbert(300, 2, 11, gen.Config{MaxWeight: 4})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	checkExact(t, e)
}

func TestStaticSingleProcessor(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 3, gen.Config{})
	e := mustEngine(t, g, 1)
	steps := mustRun(t, e)
	if steps > 1 {
		t.Fatalf("P=1 should converge after one empty step, took %d", steps)
	}
	checkExact(t, e)
}

func TestStaticMorePartsThanStructure(t *testing.T) {
	e := mustEngine(t, gen.Star(40), 16)
	mustRun(t, e)
	checkExact(t, e)
}

func TestStaticDisconnected(t *testing.T) {
	g := gen.Path(10)
	g.AddVertices(5) // isolated vertices: distances stay Inf
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	checkExact(t, e)
	if d := e.Distance(0, 12); d != dv.Inf {
		t.Fatalf("d(0,12) = %d, want Inf", d)
	}
}

func TestAnytimeMonotone(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	prev := e.Distances()
	for !e.Converged() {
		e.Step()
		cur := e.Distances()
		for v, prow := range prev {
			crow := cur[v]
			for u := range prow {
				if crow[u] > prow[u] {
					t.Fatalf("step %d: d(%d,%d) increased %d -> %d", e.StepCount(), v, u, prow[u], crow[u])
				}
			}
		}
		prev = cur
	}
	checkExact(t, e)
}

func TestEdgeAdditionsIncremental(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 21, gen.Config{MaxWeight: 4})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	adds := []graph.EdgeTriple{
		{U: 3, V: 140, W: 1},
		{U: 10, V: 77, W: 2},
		{U: 0, V: 149, W: 1},
	}
	if err := e.applyEdgeAdditions(adds); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeAdditionMidAnalysis(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 22, gen.Config{MaxWeight: 4})
	e := mustEngine(t, g, 8)
	e.Step()
	e.Step()
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 5, V: 120, W: 1}}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeAdditionExistingHeavier(t *testing.T) {
	g := gen.Path(10)
	e := mustEngine(t, g, 2)
	mustRun(t, e)
	// Heavier than existing: must be ignored.
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 0, V: 1, W: 50}}); err != nil {
		t.Fatal(err)
	}
	if w, _ := e.Graph().Weight(0, 1); w != 1 {
		t.Fatalf("existing edge weight changed to %d", w)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeWeightDecrease(t *testing.T) {
	g := gen.Grid(6, 6, gen.Config{MaxWeight: 9})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	if err := setWeight(e, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeWeightIncrease(t *testing.T) {
	g := gen.Grid(6, 6, gen.Config{})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	if err := setWeight(e, 0, 1, 7); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeDeletionConverged(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 31, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	edges := g.Edges()
	del := [][2]graph.ID{{edges[0].U, edges[0].V}, {edges[7].U, edges[7].V}}
	if err := e.applyEdgeDeletions(del); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeDeletionMidAnalysis(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 32, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	e.Step() // partial state only
	edges := e.Graph().Edges()
	del := [][2]graph.ID{{edges[3].U, edges[3].V}}
	if err := e.applyEdgeDeletions(del); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeDeletionDisconnects(t *testing.T) {
	g := gen.Path(12)
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	if err := e.applyEdgeDeletions([][2]graph.ID{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
	if d := e.Distance(0, 11); d != dv.Inf {
		t.Fatalf("d(0,11) = %d after disconnecting deletion, want Inf", d)
	}
}

func TestVertexAdditionRoundRobin(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 41, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	batch := &VertexBatch{
		Count: 5,
		Internal: []BatchEdge{
			{A: 0, B: 1, W: 1}, {A: 1, B: 2, W: 2}, {A: 2, B: 3, W: 1}, {A: 3, B: 4, W: 1},
		},
		External: []AttachEdge{
			{New: 0, To: 10, W: 1}, {New: 4, To: 90, W: 2},
		},
	}
	ids, err := e.applyVertexAdditions(batch, &RoundRobinPS{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("got %d new ids, want 5", len(ids))
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestVertexAdditionCutEdge(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 42, gen.Config{})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	// Two clear communities in the batch.
	batch := &VertexBatch{Count: 10}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 5; j++ {
			batch.Internal = append(batch.Internal, BatchEdge{A: i, B: j, W: 1})
			batch.Internal = append(batch.Internal, BatchEdge{A: 5 + i, B: 5 + j, W: 1})
		}
	}
	batch.External = append(batch.External,
		AttachEdge{New: 0, To: 3, W: 1}, AttachEdge{New: 7, To: 50, W: 1})
	if _, err := e.applyVertexAdditions(batch, &CutEdgePS{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestVertexAdditionMidAnalysis(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 43, gen.Config{MaxWeight: 2})
	e := mustEngine(t, g, 8)
	e.Step()
	batch := &VertexBatch{
		Count:    3,
		Internal: []BatchEdge{{A: 0, B: 1, W: 1}, {A: 1, B: 2, W: 1}},
		External: []AttachEdge{{New: 0, To: 7, W: 1}},
	}
	if _, err := e.applyVertexAdditions(batch, &RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestVertexAdditionIsolatedNewVertex(t *testing.T) {
	g := gen.Path(20)
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	batch := &VertexBatch{Count: 2, External: []AttachEdge{{New: 0, To: 0, W: 1}}}
	ids, err := e.applyVertexAdditions(batch, &RoundRobinPS{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
	if d := e.Distance(ids[1], 0); d != dv.Inf {
		t.Fatalf("isolated new vertex has d=%d to 0, want Inf", d)
	}
}

func TestRepartitionStrategy(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 44, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	batch := &VertexBatch{
		Count:    6,
		Internal: []BatchEdge{{A: 0, B: 1, W: 1}, {A: 2, B: 3, W: 1}, {A: 4, B: 5, W: 1}},
		External: []AttachEdge{{New: 0, To: 2, W: 1}, {New: 2, To: 30, W: 1}, {New: 4, To: 60, W: 2}},
	}
	res, err := e.repartition(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NewIDs) != 6 {
		t.Fatalf("got %d new ids, want 6", len(res.NewIDs))
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestRepartitionPureRebalance(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 45, gen.Config{})
	e, err := New(g, Options{P: 4, Seed: 7, Partitioner: partition.RoundRobin{}})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if _, err := e.repartition(nil); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestRemoveVertices(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 46, gen.Config{MaxWeight: 2})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	if err := e.removeVertices([]graph.ID{5, 40}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
	if e.Owner(5) != -1 {
		t.Fatalf("removed vertex still owned by %d", e.Owner(5))
	}
}

func TestBaselineRestart(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 47, gen.Config{})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	// Mutate the graph directly, then restart from scratch.
	nv := g.AddVertex()
	g.AddEdge(nv, 3, 1)
	g.AddEdge(nv, 50, 2)
	e.Reinitialize()
	mustRun(t, e)
	checkExact(t, e)
}

func TestIncrementalMixedChanges(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 48, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	e.Step()
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 2, V: 120, W: 1}}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	edges := e.Graph().Edges()
	if err := e.applyEdgeDeletions([][2]graph.ID{{edges[10].U, edges[10].V}}); err != nil {
		t.Fatal(err)
	}
	e.Step()
	batch := &VertexBatch{
		Count:    4,
		Internal: []BatchEdge{{A: 0, B: 1, W: 1}, {A: 2, B: 3, W: 2}},
		External: []AttachEdge{{New: 0, To: 11, W: 1}, {New: 2, To: 99, W: 1}},
	}
	if _, err := e.applyVertexAdditions(batch, &RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestScoresMatchOracleAfterConvergence(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 49, gen.Config{MaxWeight: 2})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	got := e.Scores()
	want := exactScores(e)
	for _, v := range e.Graph().Vertices() {
		if diff := got.Classic[v] - want.Classic[v]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("classic closeness of %d: got %g, want %g", v, got.Classic[v], want.Classic[v])
		}
	}
}

func TestConvergenceReportedOnce(t *testing.T) {
	g := gen.Path(30)
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	rep, err := e.Step() // extra step after convergence must be a no-op
	if err != nil {
		t.Fatal(err)
	}
	if rep.MessagesSent != 0 || rep.RowsChanged != 0 {
		t.Fatalf("post-convergence step did work: %+v", rep)
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 50, gen.Config{})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	st := e.Stats()
	if st.BytesSent == 0 || st.MessagesSent == 0 || st.ExchangeRounds == 0 {
		t.Fatalf("expected non-zero traffic, got %+v", st)
	}
	if st.SimTotal() <= 0 {
		t.Fatalf("expected positive simulated time, got %v", st.SimTotal())
	}
}
