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
		EdgeDelete([2]graph.ID{1, 55}),
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
// a dead endpoint or self-loop anywhere in the batch rejects it intact, on
// converged state (exact test) and mid-analysis (row wipe) alike.
func TestEdgeDeletionsRejectWholeBatchOnBadPair(t *testing.T) {
	for _, converged := range []bool{true, false} {
		g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
		e := mustEngine(t, g, 4)
		if converged {
			mustRun(t, e)
		} else {
			e.Step()
		}

		var have graph.EdgeTriple
		for _, ed := range e.Graph().Edges() {
			have = ed
			break
		}
		edges := e.Graph().NumEdges()
		dead := graph.ID(e.Graph().NumIDs()) + 5
		if err := e.applyEdgeDeletions([][2]graph.ID{{have.U, have.V}, {3, dead}}); err == nil {
			t.Fatalf("converged=%t: batch with dead endpoint accepted", converged)
		}
		if !e.Graph().HasEdge(have.U, have.V) {
			t.Fatalf("converged=%t: valid prefix pair deleted despite rejection", converged)
		}
		if err := e.applyEdgeDeletions([][2]graph.ID{{have.U, have.V}, {7, 7}}); err == nil {
			t.Fatalf("converged=%t: batch with self-loop accepted", converged)
		}
		if !e.Graph().HasEdge(have.U, have.V) {
			t.Fatalf("converged=%t: valid prefix pair deleted despite rejection", converged)
		}
		rejectedBatchLeavesStateIntact(t, e, edges, converged)
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
		{"negative-del", EdgeDelete([2]graph.ID{-2, 4})},
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

// An addition batch gathers its endpoint rows once — one tree broadcast per
// distinct endpoint owner, where the per-edge broadcast of Fig. 3 line 22
// paid two per edge — and leaves distances bit-identical to k singleton
// ApplyBatch calls, right after the batch and at the fixpoint.
func TestEdgeAddBatchGathersOncePerOwner(t *testing.T) {
	a, b := enginePair(t, 120, 4)
	defer a.Close()
	defer b.Close()
	a.Step()
	b.Step()

	var batch []graph.EdgeTriple
	owners := make(map[int]bool)
	for i, u := range []graph.ID{0, 7, 19, 33, 48, 70} {
		v := absentEdge(t, a, u, graph.ID(60+5*i))
		batch = append(batch, graph.EdgeTriple{U: u, V: v, W: int32(1 + i%3)})
		owners[a.Owner(u)] = true
		owners[a.Owner(v)] = true
	}
	before := a.Stats().Broadcasts
	if err := a.ApplyBatch(&Batch{Ops: []Mutation{EdgeAdd(batch...)}}); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Broadcasts - before; got != int64(len(owners)) {
		t.Errorf("a batch of %d edges recorded %d broadcasts, want one per endpoint owner (%d)", len(batch), got, len(owners))
	}
	for _, ed := range batch {
		if err := b.ApplyBatch(&Batch{Ops: []Mutation{EdgeAdd(ed)}}); err != nil {
			t.Fatal(err)
		}
	}
	identicalDistances(t, a, b)
	mustRun(t, a)
	mustRun(t, b)
	identicalDistances(t, a, b)
	checkExact(t, a)
}

// A deletion after every RC step of one run — mid-analysis, where the
// suspect rows are wiped, and at the fixpoint, where the exact through-edge
// test runs — re-derives the hit rows by pulling from their neighbours and
// reconverges to the oracle, at pool sizes 1 and 4.
func TestEdgeDeletionAfterEveryStep(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 21, gen.Config{MaxWeight: 3})
	ref := mustEngine(t, g.Clone(), 4)
	defer ref.Close()
	steps := mustRun(t, ref)
	// One cut edge and one edge inside a processor.
	var cut, inner [2]graph.ID
	var haveCut, haveInner bool
	for _, ed := range g.Edges() {
		if same := ref.Owner(ed.U) == ref.Owner(ed.V); same && !haveInner {
			inner, haveInner = [2]graph.ID{ed.U, ed.V}, true
		} else if !same && !haveCut {
			cut, haveCut = [2]graph.ID{ed.U, ed.V}, true
		}
	}
	if !haveCut || !haveInner {
		t.Fatal("graph has no cut edge or no inner edge")
	}
	for _, workers := range []int{1, 4} {
		for k := 0; k <= steps; k++ {
			e, err := New(g.Clone(), Options{P: 4, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.ApplyBatch(&Batch{Ops: []Mutation{EdgeDelete(cut, inner)}}); err != nil {
				t.Fatal(err)
			}
			mustRun(t, e)
			checkExact(t, e)
			e.Close()
		}
	}
}
