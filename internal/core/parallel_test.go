package core

import (
	"fmt"
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

// This file is the determinism oracle of the worker-pool mode: the same
// dynamic workload — IA, RC steps, edge additions, both deletion
// invalidations, a weight change, vertex additions, repartitioning and a
// processor failure, i.e. every code path that shards across the pool —
// must produce bit-identical Distances and Scores at every convergence
// checkpoint for any worker count. Relax runs in place on the processor's
// goroutine at every pool size and the sharded kernels write only their own
// rows, so converged distances are the exact shortest paths at every worker
// count; see DESIGN.md §6.

// parallelWorkload drives one engine through the full dynamic workload,
// converging after every mutation and recording a distance snapshot at each
// checkpoint. Mutations applied to a converged engine are also recorded
// immediately, before any step: the mutation kernels are the same code at
// every pool size, so from identical converged state they must leave
// identical rows. All mutations are derived deterministically from the graph
// state, so every worker count sees the identical operation sequence.
func parallelWorkload(t *testing.T, workers int) []map[graph.ID][]int32 {
	t.Helper()
	g := gen.BarabasiAlbert(220, 2, 11, gen.Config{MaxWeight: 4})
	e, err := New(g, Options{P: 6, Seed: 7, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints []map[graph.ID][]int32
	converge := func() {
		mustRun(t, e)
		checkpoints = append(checkpoints, e.Distances())
	}
	snap := func() {
		checkpoints = append(checkpoints, e.Distances()) // post-mutation, pre-step
		converge()
	}
	snap() // IA + first convergence

	// Edge additions: connect far-apart vertex pairs not already adjacent.
	var adds []graph.EdgeTriple
	for i := 0; len(adds) < 8 && i < 100; i++ {
		u, v := graph.ID(i), graph.ID(i+97)
		if _, ok := e.Graph().Weight(u, v); !ok {
			adds = append(adds, graph.EdgeTriple{U: u, V: v, W: int32(1 + i%3)})
		}
	}
	if err := e.applyEdgeAdditions(adds); err != nil {
		t.Fatal(err)
	}
	snap()

	// Vertex additions through the incremental path (seed loop shards).
	batch := &VertexBatch{
		Count:    5,
		Internal: []BatchEdge{{A: 0, B: 1, W: 1}, {A: 1, B: 2, W: 2}, {A: 3, B: 4, W: 1}},
		External: []AttachEdge{{New: 0, To: 3, W: 1}, {New: 2, To: 40, W: 2}, {New: 3, To: 111, W: 1}, {New: 4, To: 8, W: 3}},
	}
	if _, err := e.applyVertexAdditions(batch, &RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	snap()

	// Deletions on converged state (exact test): drop every third added
	// edge.
	var dels [][2]graph.ID
	for i, ed := range adds {
		if i%3 == 0 {
			dels = append(dels, [2]graph.ID{ed.U, ed.V})
		}
	}
	if err := e.applyEdgeDeletions(dels); err != nil {
		t.Fatal(err)
	}
	snap()

	// Deletions on partially-converged state (row wipe): mutate, step twice
	// (not to convergence), then delete; the converged state is compared.
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 5, V: 180, W: 2}, {U: 12, V: 150, W: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.applyEdgeDeletions([][2]graph.ID{{5, 180}}); err != nil {
		t.Fatal(err)
	}
	converge()

	// Weight change (deletion + re-insertion path).
	if err := setWeight(e, 12, 150, 3); err != nil {
		t.Fatal(err)
	}
	snap()

	// Repartition-S without a batch (pure rebalance; reseed shards).
	if _, err := e.repartition(nil); err != nil {
		t.Fatal(err)
	}
	snap()

	// Processor failure and recovery (salvage + reseed shards).
	if _, err := e.FailProcessor(2); err != nil {
		t.Fatal(err)
	}
	snap()

	checkExact(t, e) // converged distances equal the sequential Dijkstra oracle
	return checkpoints
}

// sameCheckpoints asserts two checkpoint sequences are bit-identical.
func sameCheckpoints(t *testing.T, label string, want, got []map[graph.ID][]int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d checkpoints, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: checkpoint %d has %d rows, want %d", label, i, len(got[i]), len(want[i]))
		}
		for v, wrow := range want[i] {
			grow, ok := got[i][v]
			if !ok {
				t.Fatalf("%s: checkpoint %d missing row %d", label, i, v)
			}
			for c := range wrow {
				if grow[c] != wrow[c] {
					t.Fatalf("%s: checkpoint %d d(%d,%d) = %d, want %d", label, i, v, c, grow[c], wrow[c])
				}
			}
		}
	}
}

// TestParallelDeterminismOracle runs the full dynamic workload at workers
// 1, 2, 4 and 7 and asserts bit-identical distances at every convergence
// checkpoint (and, via checkExact inside the workload, exactness at the end).
func TestParallelDeterminismOracle(t *testing.T) {
	base := parallelWorkload(t, 1)
	for _, w := range []int{2, 4, 7} {
		sameCheckpoints(t, fmt.Sprintf("workers=%d vs workers=1", w), base, parallelWorkload(t, w))
	}
}

// TestParallelScoresMatchSequential pins the Scores read-out: the converged
// scores of a pooled engine must be bit-identical (exact float equality)
// to the one-worker engine's.
func TestParallelScoresMatchSequential(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 5, gen.Config{MaxWeight: 3})
	seq, err := New(g.Clone(), Options{P: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(g, Options{P: 4, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, seq)
	mustRun(t, par)
	want, got := seq.Scores(), par.Scores()
	for v, w := range want.Harmonic {
		if got.Harmonic[v] != w || got.Classic[v] != want.Classic[v] {
			t.Fatalf("scores diverged for vertex %d: harmonic %v vs %v, classic %v vs %v",
				v, got.Harmonic[v], w, got.Classic[v], want.Classic[v])
		}
	}
}

// TestParallelStepIdenticalAcrossWorkerCounts pins the stronger per-step
// property of the pool mode: relax is one in-place kernel at every pool size,
// so every worker count, 1 included, produces bit-identical distances after
// every single step (not just at convergence).
func TestParallelStepIdenticalAcrossWorkerCounts(t *testing.T) {
	g := gen.BarabasiAlbert(160, 2, 9, gen.Config{MaxWeight: 4})
	workers := []int{1, 2, 4, 7}
	engines := make([]*Engine, 0, len(workers))
	for _, w := range workers {
		e, err := New(g.Clone(), Options{P: 5, Seed: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	for step := 0; !engines[0].Converged() && step < 200; step++ {
		for _, e := range engines {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		want := engines[0].Distances()
		for i, e := range engines[1:] {
			got := e.Distances()
			for v, wrow := range want {
				grow := got[v]
				for c := range wrow {
					if grow[c] != wrow[c] {
						t.Fatalf("step %d: workers=%d vs workers=1: d(%d,%d) = %d, want %d",
							step+1, workers[i+1], v, c, grow[c], wrow[c])
					}
				}
			}
		}
	}
	for _, e := range engines {
		if !e.Converged() {
			t.Fatal("engines did not converge in step lockstep")
		}
		checkExact(t, e)
	}
}

// TestParallelConvergesToExact mirrors the static oracle tests at several
// worker counts and graph shapes.
func TestParallelConvergesToExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       func() *graph.Graph
		p, work int
	}{
		{"path-w2", func() *graph.Graph { return gen.Path(20) }, 4, 2},
		{"grid-w4", func() *graph.Graph { return gen.Grid(8, 9, gen.Config{MaxWeight: 5}) }, 6, 4},
		{"scalefree-w8", func() *graph.Graph { return gen.BarabasiAlbert(300, 2, 11, gen.Config{MaxWeight: 4}) }, 8, 8},
		{"singleproc-w4", func() *graph.Graph { return gen.BarabasiAlbert(80, 2, 3, gen.Config{}) }, 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.g(), Options{P: tc.p, Seed: 7, Workers: tc.work})
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, e)
			checkExact(t, e)
		})
	}
}

// TestWorkersDefault pins the option default: Workers < 1 resolves to a pool
// of one.
func TestWorkersDefault(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	if e.Workers() != 1 {
		t.Fatalf("default Workers = %d, want 1", e.Workers())
	}
	e2, err := New(gen.Path(10), Options{P: 2, Seed: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", e2.Workers())
	}
}
