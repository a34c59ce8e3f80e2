package core

import (
	"strings"
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

func TestNewRejectsBadP(t *testing.T) {
	for _, p := range []int{-1, 65, 1000} {
		if _, err := New(gen.Path(10), Options{P: p}); err == nil {
			t.Fatalf("P=%d accepted", p)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	e, err := New(gen.Path(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.P() != 16 {
		t.Fatalf("default P=%d, want 16 (the paper's processor count)", e.P())
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestApplyVertexAdditionsValidation(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	mustRun(t, e)
	cases := []*VertexBatch{
		{Count: 2, Internal: []BatchEdge{{A: 0, B: 5, W: 1}}},     // index out of range
		{Count: 2, Internal: []BatchEdge{{A: 1, B: 1, W: 1}}},     // self loop
		{Count: 1, External: []AttachEdge{{New: 3, To: 0, W: 1}}}, // new index out of range
	}
	for i, b := range cases {
		if _, err := e.applyVertexAdditions(b, &RoundRobinPS{}); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// Attaching to a dead vertex.
	if err := e.removeVertices([]graph.ID{4}); err != nil {
		t.Fatal(err)
	}
	bad := &VertexBatch{Count: 1, External: []AttachEdge{{New: 0, To: 4, W: 1}}}
	if _, err := e.applyVertexAdditions(bad, &RoundRobinPS{}); err == nil {
		t.Fatal("attachment to dead vertex accepted")
	}
	if _, err := e.repartition(bad); err == nil {
		t.Fatal("repartition batch with dead attachment accepted")
	}
}

func TestApplyEdgeAdditionsValidation(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 1, V: 1, W: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 1, V: 99, W: 1}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestSetEdgeWeightValidation(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	if err := setWeight(e, 0, 5, 3); err == nil {
		t.Fatal("weight change on missing edge accepted")
	}
	if err := setWeight(e, 0, 1, 1); err != nil { // no-op same weight
		t.Fatal(err)
	}
}

func TestRemoveVerticesValidation(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	if err := e.removeVertices([]graph.ID{42}); err == nil {
		t.Fatal("removal of invalid vertex accepted")
	}
}

func TestEmptyOperationsAreNoOps(t *testing.T) {
	e := mustEngine(t, gen.Path(20), 4)
	mustRun(t, e)
	if err := e.applyEdgeAdditions(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.applyEdgeDeletions(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.applyEdgeDeletionsEager(nil); err != nil {
		t.Fatal(err)
	}
	if ids, err := e.applyVertexAdditions(&VertexBatch{}, &RoundRobinPS{}); err != nil || ids != nil {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
	if !e.Converged() {
		t.Fatal("no-op operations broke convergence state")
	}
}

func TestDeletionOfMissingEdgeIsNoOp(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	mustRun(t, e)
	if err := e.applyEdgeDeletions([][2]graph.ID{{0, 9}}); err != nil {
		t.Fatal(err)
	}
	checkExact(t, e)
}

func TestStrategyNames(t *testing.T) {
	for _, tc := range []struct {
		ps   ProcessorAssigner
		want string
	}{
		{&RoundRobinPS{}, "RoundRobin-PS"},
		{&CutEdgePS{}, "CutEdge-PS"},
	} {
		if got := tc.ps.Name(); got != tc.want {
			t.Fatalf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestRoundRobinCursorPersists(t *testing.T) {
	e := mustEngine(t, gen.Path(20), 4)
	mustRun(t, e)
	rr := &RoundRobinPS{}
	a := rr.Assign(e, &VertexBatch{Count: 3})
	b := rr.Assign(e, &VertexBatch{Count: 3})
	if a[0] != 0 || a[1] != 1 || a[2] != 2 {
		t.Fatalf("first assignment %v", a)
	}
	if b[0] != 3 || b[1] != 0 || b[2] != 1 {
		t.Fatalf("cursor did not persist: %v", b)
	}
}

func TestDistanceAccessors(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	mustRun(t, e)
	if d := e.Distance(0, 9); d != 9 {
		t.Fatalf("Distance(0,9) = %d", d)
	}
	if e.Owner(0) < 0 || e.Owner(0) >= 2 {
		t.Fatalf("Owner(0) = %d", e.Owner(0))
	}
	if e.Owner(99) != -1 {
		t.Fatal("out-of-range owner not -1")
	}
	a := e.Assignment()
	if err := a.Validate(e.Graph()); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorMentionsSteps(t *testing.T) {
	g := gen.Path(40)
	e, err := New(g, Options{P: 4, Seed: 1, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil {
		t.Fatal("expected MaxSteps error on a path graph with 1 allowed step")
	}
	if !strings.Contains(err.Error(), "RC steps") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Recovery: raising the bound via more Run calls still converges.
	for i := 0; i < 100 && !e.Converged(); i++ {
		e.Step()
	}
	checkExact(t, e)
}
