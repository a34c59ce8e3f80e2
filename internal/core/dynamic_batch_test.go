package core

import (
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

// These tests pin the all-or-nothing contract of the dynamic batch entry
// points: a batch with any invalid element must be rejected whole, with no
// graph mutation and no distance-state damage. The historical bug was
// validating inside the apply loop, so a mid-batch rejection left earlier
// edges inserted but never relaxed — silently wrong distances thereafter.

// absentEdge returns an edge {u,v} not present in the graph, scanning v
// upward from the given start (BA generators may already connect small IDs).
func absentEdge(t *testing.T, e *Engine, u graph.ID, from graph.ID) graph.ID {
	t.Helper()
	for v := from; int(v) < e.Graph().NumIDs(); v++ {
		if v == u || !e.Graph().Has(v) {
			continue
		}
		if _, ok := e.Graph().Weight(u, v); !ok {
			return v
		}
	}
	t.Fatal("no absent edge found")
	return 0
}

// rejectedBatchLeavesStateIntact asserts the engine is bit-for-bit usable
// after a rejected batch: the graph kept its edge count, convergence status
// survived, and the distances still match the oracle.
func rejectedBatchLeavesStateIntact(t *testing.T, e *Engine, edgesBefore int, convBefore bool) {
	t.Helper()
	if got := e.Graph().NumEdges(); got != edgesBefore {
		t.Fatalf("rejected batch mutated the graph: %d edges, want %d", got, edgesBefore)
	}
	if e.Converged() != convBefore {
		t.Fatalf("rejected batch flipped convergence: %t, want %t", e.Converged(), convBefore)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEdgeAdditionsRejectWholeBatchOnDeadVertex(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	edges := e.Graph().NumEdges()
	v := absentEdge(t, e, 0, 40)
	bad := graph.ID(e.Graph().NumIDs()) + 10 // out of range = dead
	batch := []graph.EdgeTriple{
		{U: 0, V: v, W: 1}, // valid, must NOT survive the rejection
		{U: 1, V: bad, W: 1},
	}
	if err := e.applyEdgeAdditions(batch); err == nil {
		t.Fatal("batch with dead endpoint accepted")
	}
	if _, ok := e.Graph().Weight(0, v); ok {
		t.Fatalf("valid prefix edge {0,%d} was inserted despite batch rejection", v)
	}
	rejectedBatchLeavesStateIntact(t, e, edges, true)
}

func TestEdgeAdditionsRejectWholeBatchOnSelfLoop(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	edges := e.Graph().NumEdges()
	v := absentEdge(t, e, 2, 40)
	batch := []graph.EdgeTriple{
		{U: 2, V: v, W: 1},
		{U: 9, V: 9, W: 1},
	}
	if err := e.applyEdgeAdditions(batch); err == nil {
		t.Fatal("batch with self-loop accepted")
	}
	if _, ok := e.Graph().Weight(2, v); ok {
		t.Fatalf("valid prefix edge {2,%d} was inserted despite batch rejection", v)
	}
	rejectedBatchLeavesStateIntact(t, e, edges, true)
}

func TestEdgeAdditionsRejectWholeBatchOnNonPositiveWeight(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	edges := e.Graph().NumEdges()
	v := absentEdge(t, e, 4, 40)
	for _, w := range []int32{0, -3} {
		batch := []graph.EdgeTriple{
			{U: 4, V: v, W: 2},
			{U: 5, V: 45, W: w},
		}
		if err := e.applyEdgeAdditions(batch); err == nil {
			t.Fatalf("batch with weight %d accepted", w)
		}
		if _, ok := e.Graph().Weight(4, v); ok {
			t.Fatalf("valid prefix edge {4,%d} was inserted despite batch rejection", v)
		}
	}
	rejectedBatchLeavesStateIntact(t, e, edges, true)
}

// Mid-analysis rejection: the engine must stay un-converged but undamaged
// when the batch is rejected between RC steps (the anywhere setting).
func TestEdgeAdditionsRejectionMidAnalysis(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 13, gen.Config{MaxWeight: 4})
	e := mustEngine(t, g, 4)
	defer e.Close()
	e.Step() // partial state only

	edges := e.Graph().NumEdges()
	batch := []graph.EdgeTriple{
		{U: 3, V: 60, W: 1},
		{U: 7, V: 7, W: 2}, // self-loop rejects the batch
	}
	if err := e.applyEdgeAdditions(batch); err == nil {
		t.Fatal("batch with self-loop accepted")
	}
	rejectedBatchLeavesStateIntact(t, e, edges, false)
}

func TestRemoveVerticesRejectsDuplicates(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	verts := e.Graph().NumVertices()
	edges := e.Graph().NumEdges()
	if err := e.removeVertices([]graph.ID{10, 11, 10}); err == nil {
		t.Fatal("duplicate vertex in removal batch accepted")
	}
	if got := e.Graph().NumVertices(); got != verts {
		t.Fatalf("rejected removal mutated vertices: %d, want %d", got, verts)
	}
	rejectedBatchLeavesStateIntact(t, e, edges, true)
}

func TestRemoveVerticesRejectsDeadVertexWholeBatch(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	// Legitimately retire one vertex, then name it in a later batch.
	if err := e.removeVertices([]graph.ID{20}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)

	verts := e.Graph().NumVertices()
	edges := e.Graph().NumEdges()
	if err := e.removeVertices([]graph.ID{21, 20}); err == nil {
		t.Fatal("batch naming a dead vertex accepted")
	}
	if !e.Graph().Has(21) {
		t.Fatal("valid prefix vertex 21 was removed despite batch rejection")
	}
	if got := e.Graph().NumVertices(); got != verts {
		t.Fatalf("rejected removal mutated vertices: %d, want %d", got, verts)
	}
	rejectedBatchLeavesStateIntact(t, e, edges, true)
}
