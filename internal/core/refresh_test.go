package core

import (
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

func TestEagerLocalRefreshConvergesExactly(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 81, gen.Config{MaxWeight: 3})
	e, err := New(g, Options{P: 8, Seed: 7, EagerLocalRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEagerLocalRefreshNeverSlowerInSteps(t *testing.T) {
	build := func(eager bool) *Engine {
		g := gen.BarabasiAlbert(200, 2, 82, gen.Config{MaxWeight: 2})
		e, err := New(g, Options{P: 8, Seed: 7, EagerLocalRefresh: eager})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	lazy := build(false)
	lazySteps := mustRun(t, lazy)
	eager := build(true)
	eagerSteps := mustRun(t, eager)
	if eagerSteps > lazySteps {
		t.Fatalf("eager refresh took more steps (%d) than lazy (%d)", eagerSteps, lazySteps)
	}
	checkExact(t, eager)
}

func TestEagerLocalRefreshWithDynamics(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 83, gen.Config{MaxWeight: 2})
	e, err := New(g, Options{P: 4, Seed: 7, EagerLocalRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 0, V: 100, W: 1}}); err != nil {
		t.Fatal(err)
	}
	batch := &VertexBatch{Count: 2, External: []AttachEdge{{New: 0, To: 3, W: 1}, {New: 1, To: 60, W: 1}}}
	if _, err := e.applyVertexAdditions(batch, &RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}
