package core

import (
	"errors"
	"reflect"
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

// identicalDistances asserts two engines hold bit-for-bit equal distance
// state — the correctness bar for every coalescing transform, checked
// mid-stream (not merely at convergence).
func identicalDistances(t *testing.T, got, want *Engine) {
	t.Helper()
	gd, wd := got.Distances(), want.Distances()
	if len(gd) != len(wd) {
		t.Fatalf("distance rows: got %d, want %d", len(gd), len(wd))
	}
	for v, wrow := range wd {
		if !reflect.DeepEqual(gd[v], wrow) {
			t.Fatalf("row %d diverged:\n got %v\nwant %v", v, gd[v], wrow)
		}
	}
}

func enginePair(t *testing.T, n int, p int) (*Engine, *Engine) {
	t.Helper()
	g := gen.BarabasiAlbert(n, 2, 11, gen.Config{MaxWeight: 4})
	a := mustEngine(t, g.Clone(), p)
	b := mustEngine(t, g, p)
	return a, b
}

// A batch of k edge additions must be bit-identical to k singleton calls —
// the property that makes merging adjacent addition ops an identity
// transform. Exercised mid-analysis, with duplicates and weight decreases.
func TestEdgeAddBatchEqualsSingletonSequence(t *testing.T) {
	a, b := enginePair(t, 70, 4)
	defer a.Close()
	defer b.Close()
	a.Step()
	b.Step()

	batch := []graph.EdgeTriple{
		{U: 0, V: 50, W: 3},
		{U: 3, V: 44, W: 2},
		{U: 0, V: 50, W: 1}, // duplicate pair, improving: a weight decrease
		{U: 3, V: 44, W: 5}, // duplicate pair, worse: skipped
		{U: 12, V: 61, W: 4},
	}
	if err := a.applyEdgeAdditions(batch); err != nil {
		t.Fatal(err)
	}
	for _, ed := range batch {
		if err := b.applyEdgeAdditions([]graph.EdgeTriple{ed}); err != nil {
			t.Fatal(err)
		}
	}
	identicalDistances(t, a, b)
	mustRun(t, a)
	checkExact(t, a)
}

// Coalesce merges adjacent edge-add ops; the resulting schedule must be
// bit-identical to the unmerged one-op-at-a-time stream at the moment the
// batch lands (not just at convergence).
func TestCoalesceExactBitIdentical(t *testing.T) {
	a, b := enginePair(t, 70, 4)
	defer a.Close()
	defer b.Close()
	a.Step()
	b.Step()

	ops := []Mutation{
		EdgeAdd(graph.EdgeTriple{U: 1, V: 55, W: 2}),
		EdgeAdd(graph.EdgeTriple{U: 2, V: 47, W: 1}, graph.EdgeTriple{U: 6, V: 52, W: 3}),
		EdgeAdd(), // structurally empty: merged away
		EdgeAdd(graph.EdgeTriple{U: 1, V: 55, W: 1}),
		EdgeDeleteEager([2]graph.ID{1, 55}),
		EdgeAdd(graph.EdgeTriple{U: 8, V: 62, W: 2}),
		WeightSet(2, 47, 4),
		EdgeAdd(graph.EdgeTriple{U: 9, V: 63, W: 1}),
	}
	units := Coalesce(ops)
	// The first four ops are one merged unit; the rest stay singletons.
	if len(units) != 5 || units[0].Count != 4 || units[0].First != 0 {
		t.Fatalf("unexpected exact schedule: %+v", units)
	}
	next := 0
	for _, u := range units {
		if u.First != next {
			t.Fatalf("units do not partition the stream: unit at %d, want %d", u.First, next)
		}
		next = u.First + u.Count
	}
	if next != len(ops) {
		t.Fatalf("units cover %d ops, want %d", next, len(ops))
	}

	batch := &Batch{Ops: make([]Mutation, len(units))}
	for i, u := range units {
		batch.Ops[i] = u.Mut
	}
	if err := a.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if err := b.ApplyBatch(&Batch{Ops: []Mutation{ops[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	identicalDistances(t, a, b)
	mustRun(t, a)
	checkExact(t, a)
}

// DecomposeWeightSet is the one shared source of the weight-increase
// decomposition; applying it must match the MutSetWeight increase path
// bit-for-bit (barrier flavour) and stay exact under the eager flavour the
// detached replay uses.
func TestDecomposeWeightSetMatchesSetEdgeWeight(t *testing.T) {
	a, b := enginePair(t, 60, 4)
	defer a.Close()
	defer b.Close()
	mustRun(t, a)
	mustRun(t, b)

	var have graph.EdgeTriple
	for _, ed := range a.Graph().Edges() {
		have = ed
		break
	}
	w := have.W + 3
	if err := setWeight(a, have.U, have.V, w); err != nil {
		t.Fatal(err)
	}
	steps := DecomposeWeightSet(have.U, have.V, w, false)
	if err := b.ApplyBatch(&Batch{Ops: steps[:]}); err != nil {
		t.Fatal(err)
	}
	identicalDistances(t, a, b)

	// Eager flavour: different intermediate schedule, same converged truth.
	c := mustEngine(t, a.Graph().Clone(), 4)
	defer c.Close()
	mustRun(t, c)
	steps = DecomposeWeightSet(have.U, have.V, w+2, true)
	if steps[0].Kind != MutEdgeDeleteEager {
		t.Fatalf("eager decomposition starts with %s", steps[0].Kind)
	}
	if err := c.ApplyBatch(&Batch{Ops: steps[:]}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c)
	checkExact(t, c)
}

// setEdgeWeights must reject the whole batch when any update names a missing
// edge or a non-positive weight — with no prefix applied.
func TestSetEdgeWeightsRejectsWholeBatch(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	var have graph.EdgeTriple
	for _, ed := range e.Graph().Edges() {
		have = ed
		break
	}
	missing := absentEdge(t, e, have.U, 40)
	edges := e.Graph().NumEdges()
	batch := []graph.EdgeTriple{
		{U: have.U, V: have.V, W: have.W + 4}, // valid, must NOT survive
		{U: have.U, V: missing, W: 2},         // missing edge
	}
	if err := e.setEdgeWeights(batch); err == nil {
		t.Fatal("batch naming a missing edge accepted")
	}
	if w, _ := e.Graph().Weight(have.U, have.V); w != have.W {
		t.Fatalf("valid prefix update applied despite rejection: weight %d, want %d", w, have.W)
	}
	batch[1] = graph.EdgeTriple{U: have.U, V: have.V, W: 0}
	if err := e.setEdgeWeights(batch); err == nil {
		t.Fatal("batch with non-positive weight accepted")
	}
	if w, _ := e.Graph().Weight(have.U, have.V); w != have.W {
		t.Fatalf("valid prefix update applied despite rejection: weight %d, want %d", w, have.W)
	}
	rejectedBatchLeavesStateIntact(t, e, edges, true)
}

// Edge deletions now share the whole-batch-validate-before-mutate contract:
// a dead endpoint or self-loop anywhere in the batch rejects it intact, in
// both barrier and eager modes.
func TestEdgeDeletionsRejectWholeBatchOnBadPair(t *testing.T) {
	for _, eager := range []bool{false, true} {
		g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
		e := mustEngine(t, g, 4)
		mustRun(t, e)

		var have graph.EdgeTriple
		for _, ed := range e.Graph().Edges() {
			have = ed
			break
		}
		edges := e.Graph().NumEdges()
		dead := graph.ID(e.Graph().NumIDs()) + 5
		del := func(pairs [][2]graph.ID) error {
			if eager {
				return e.applyEdgeDeletionsEager(pairs)
			}
			return e.applyEdgeDeletions(pairs)
		}
		if err := del([][2]graph.ID{{have.U, have.V}, {3, dead}}); err == nil {
			t.Fatalf("eager=%t: batch with dead endpoint accepted", eager)
		}
		if !e.Graph().HasEdge(have.U, have.V) {
			t.Fatalf("eager=%t: valid prefix pair deleted despite rejection", eager)
		}
		if err := del([][2]graph.ID{{have.U, have.V}, {7, 7}}); err == nil {
			t.Fatalf("eager=%t: batch with self-loop accepted", eager)
		}
		if !e.Graph().HasEdge(have.U, have.V) {
			t.Fatalf("eager=%t: valid prefix pair deleted despite rejection", eager)
		}
		rejectedBatchLeavesStateIntact(t, e, edges, true)
		e.Close()
	}
}

// ApplyBatch applies ops in order and stops at the first failure, reporting
// it as a *BatchError: the prefix stays applied, the failing op mutated
// nothing, the suffix is untouched, and the engine remains consistent.
func TestApplyBatchPartialFailure(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	v1 := absentEdge(t, e, 0, 40)
	v2 := absentEdge(t, e, 1, 40)
	dead := graph.ID(e.Graph().NumIDs()) + 2
	b := &Batch{Ops: []Mutation{
		EdgeAdd(graph.EdgeTriple{U: 0, V: v1, W: 1}),
		EdgeDelete([2]graph.ID{3, dead}),
		EdgeAdd(graph.EdgeTriple{U: 1, V: v2, W: 1}),
	}}
	err := e.ApplyBatch(b)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("want *BatchError at op 1, got %v", err)
	}
	if !e.Graph().HasEdge(0, v1) {
		t.Fatal("prefix op was not applied")
	}
	if e.Graph().HasEdge(1, v2) {
		t.Fatal("suffix op was applied past the failure")
	}
	mustRun(t, e)
	checkExact(t, e)
}

// ApplyBatch hands vertex-addition and repartition results back through the
// mutation's result fields.
func TestApplyBatchResultFields(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, 5, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 4)
	defer e.Close()
	mustRun(t, e)

	vb := &VertexBatch{Count: 2, Internal: []BatchEdge{{A: 0, B: 1, W: 1}},
		External: []AttachEdge{{New: 0, To: 3, W: 2}}}
	b := &Batch{Ops: []Mutation{
		VertexAdd(vb, &RoundRobinPS{}),
		RepartitionOp(nil),
	}}
	if err := e.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Ops[0].AssignedIDs) != 2 {
		t.Fatalf("vertex-add assigned %d IDs, want 2", len(b.Ops[0].AssignedIDs))
	}
	if b.Ops[1].Repart == nil {
		t.Fatal("repartition result not filled")
	}
	mustRun(t, e)
	checkExact(t, e)
}

// Structural validation catches bad payloads before any engine access and
// reports the op index.
func TestBatchValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Mutation
	}{
		{"negative-id-add", EdgeAdd(graph.EdgeTriple{U: -1, V: 2, W: 1})},
		{"self-loop-add", EdgeAdd(graph.EdgeTriple{U: 2, V: 2, W: 1})},
		{"zero-weight-add", EdgeAdd(graph.EdgeTriple{U: 1, V: 2, W: 0})},
		{"zero-weight-set", WeightSet(1, 2, 0)},
		{"self-loop-del", EdgeDelete([2]graph.ID{4, 4})},
		{"negative-del", EdgeDeleteEager([2]graph.ID{-2, 4})},
		{"negative-vertex-remove", VertexRemove(-1)},
		{"vertex-add-nil-batch", Mutation{Kind: MutVertexAdd, Assign: &RoundRobinPS{}}},
		{"vertex-add-nil-assigner", Mutation{Kind: MutVertexAdd, Batch: &VertexBatch{Count: 1}}},
		{"unknown-kind", Mutation{Kind: MutationKind(99)}},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
		b := &Batch{Ops: []Mutation{EdgeAdd(), tc.m}}
		err := b.Validate()
		var be *BatchError
		if !errors.As(err, &be) || be.Index != 1 {
			t.Errorf("%s: want *BatchError at op 1, got %v", tc.name, err)
		}
	}
	ok := &Batch{Ops: []Mutation{
		EdgeAdd(graph.EdgeTriple{U: 0, V: 1, W: 1}),
		EdgeDelete([2]graph.ID{0, 1}),
		WeightSet(0, 1, 2),
		VertexRemove(3),
		RepartitionOp(nil),
		{},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

// Clone must deep-copy payloads so async enqueuers can reuse their slices.
func TestMutationClone(t *testing.T) {
	edges := []graph.EdgeTriple{{U: 0, V: 1, W: 2}}
	m := EdgeAdd(edges...)
	cp := m.Clone()
	edges[0].W = 9
	if cp.Edges[0].W != 2 {
		t.Fatal("clone shares the edge slice")
	}
	vb := &VertexBatch{Count: 1, External: []AttachEdge{{New: 0, To: 2, W: 1}}}
	mv := VertexAdd(vb, &RoundRobinPS{})
	cpv := mv.Clone()
	vb.External[0].W = 7
	if cpv.Batch.External[0].W != 1 {
		t.Fatal("clone shares the vertex batch")
	}
}
