package core

import (
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

// TestExtPendingNoteDedup is the regression test for duplicate-column
// inflation: repeated delta notes for the same column must not creep toward
// the width/colCap full-row threshold — only *unique* columns count.
func TestExtPendingNoteDedup(t *testing.T) {
	const width = 100 // threshold: width/colCap = 50 unique columns
	p := &extPending{}
	for i := 0; i < 40*width; i++ {
		p.note(width, []int32{7})
	}
	if p.full {
		t.Fatal("repeated notes for a single column tripped the full-row threshold")
	}
	if got := p.cols.AppendSorted(nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("flattened columns = %v, want [7]", got)
	}
	// Distinct columns past the threshold must still trip it.
	cols := make([]int32, 0, width/colCap+1)
	for c := int32(0); c <= width/colCap; c++ {
		cols = append(cols, c)
	}
	p.note(width, cols)
	if !p.full {
		t.Fatalf("%d unique columns did not trip the width/%d threshold", len(cols), colCap)
	}
}

// steadyStateEngine returns a converged engine plus a boundary vertex owned
// by some processor with at least one peer holding its snapshot.
func steadyStateEngine(t *testing.T) (*Engine, graph.ID) {
	return steadyStateEngineWorkers(t, 1)
}

// steadyStateEngineWorkers is steadyStateEngine with an intra-processor
// worker pool of the given size.
func steadyStateEngineWorkers(t *testing.T, workers int) (*Engine, graph.ID) {
	t.Helper()
	g := gen.BarabasiAlbert(300, 2, 11, gen.Config{MaxWeight: 4})
	e, err := New(g, Options{P: 4, Seed: 7, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	for _, v := range e.g.Vertices() {
		if e.peerMask(v) != 0 {
			return e, v
		}
	}
	t.Fatal("no boundary vertex found")
	return nil, 0
}

// TestCollectMailAllocsSteadyState pins the steady-state allocation count of
// collectMail: re-sending a one-column delta for a boundary row must not
// allocate (arena-backed cols/vals, pooled mail and message cells).
func TestCollectMailAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only hold without -race")
	}
	e, v := steadyStateEngine(t)
	pr := e.procs[e.Owner(v)]
	cols := []int32{0}
	allocs := testing.AllocsPerRun(50, func() {
		pr.noteRowChanged(e, v, cols)
		pr.collectMail(e)
	})
	if allocs > 0 {
		t.Errorf("steady-state collectMail allocates %.1f times per run, want 0", allocs)
	}
}

// stepAllocs measures the allocations of one steady-state Step that re-sends
// and re-relaxes a one-column delta on an engine with the given pool size.
func stepAllocs(t *testing.T, workers int) float64 {
	e, v := steadyStateEngineWorkers(t, workers)
	pr := e.procs[e.Owner(v)]
	cols := []int32{0}
	return testing.AllocsPerRun(50, func() {
		pr.noteRowChanged(e, v, cols)
		e.Step()
	})
}

// TestStepAllocsSteadyState pins the steady-state allocation count of a full
// Engine.Step that re-sends and re-relaxes a one-column delta. The runtime's
// phase plumbing (goroutine spawns in Parallel, the exchange) has a small
// constant cost; the data path itself must contribute nothing that scales
// with rows or width. Seed-level steps allocated hundreds of times per step.
func TestStepAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only hold without -race")
	}
	allocs := stepAllocs(t, 1)
	const budget = 60
	if allocs > budget {
		t.Errorf("steady-state Step allocates %.1f times per run, budget %d", allocs, budget)
	}
	t.Logf("steady-state Step: %.1f allocs/run (budget %d)", allocs, budget)
}

// TestStepAllocsSteadyStateWorkers is the worker-pool alloc pin: an RC step
// shards nothing (relax runs in place on the processor's goroutine), so a
// steady-state Step allocates exactly as often with four workers as with one.
func TestStepAllocsSteadyStateWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only hold without -race")
	}
	one, four := stepAllocs(t, 1), stepAllocs(t, 4)
	if four != one {
		t.Errorf("steady-state Step allocates %.1f times per run with 4 workers, %.1f with 1", four, one)
	}
	t.Logf("steady-state Step: %.1f allocs/run at workers=1 and 4", one)
}

// TestCollectMailAllocsSteadyStateWorkers pins collectMail under the pool:
// collect is not sharded, so the zero-alloc pin must hold unchanged.
func TestCollectMailAllocsSteadyStateWorkers(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins only hold without -race")
	}
	e, v := steadyStateEngineWorkers(t, 4)
	pr := e.procs[e.Owner(v)]
	cols := []int32{0}
	allocs := testing.AllocsPerRun(50, func() {
		pr.noteRowChanged(e, v, cols)
		pr.collectMail(e)
	})
	if allocs > 0 {
		t.Errorf("steady-state collectMail (workers=4) allocates %.1f times per run, want 0", allocs)
	}
}
