package aacc

// End-to-end integration: one long-lived analysis lives through everything
// the system supports — streamed community arrivals, edge churn, a change-log
// replay, a processor crash, a checkpoint/restore onto a fresh cluster, a
// repartition — and at every quiescent point the distances equal the
// sequential oracle and the closeness ranking is exact.

import (
	"bytes"
	"strings"
	"testing"

	"aacc/internal/centrality"
	"aacc/internal/changelog"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/runtime"
	"aacc/internal/sssp"
	"aacc/internal/workload"
)

func assertOracle(t *testing.T, e *core.Engine, stage string) {
	t.Helper()
	want := sssp.APSP(e.Graph(), 0)
	got := e.Distances()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", stage, len(got), len(want))
	}
	for v, wrow := range want {
		grow := got[v]
		for u := range wrow {
			if grow[u] != wrow[u] {
				t.Fatalf("%s: d(%d,%d) = %d, want %d", stage, v, u, grow[u], wrow[u])
			}
		}
	}
}

func TestIntegrationFullLifecycle(t *testing.T) {
	add, err := workload.ExtractAddition(400, 60, 123, gen.Config{MaxWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(add.Base, core.Options{P: 8, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: initial convergence.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "initial")

	// Phase 2: streamed community arrivals (CutEdge-PS) with edge churn
	// interleaved, never waiting for convergence between waves.
	inc := workload.NewIncremental(add.Batch, 4)
	ps := &core.CutEdgePS{Seed: 123}
	wave := 0
	for inc.Remaining() > 0 {
		wave++
		e.Step()
		if _, err := inc.Inject(e, ps); err != nil {
			t.Fatal(err)
		}
		if wave == 2 {
			adds := workload.RandomEdgeAdditions(e.Graph(), 10, 3, 77)
			if err := e.ApplyBatch(&core.Batch{Ops: []core.Mutation{core.EdgeAdd(adds...)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "after streamed arrivals")

	// Phase 3: a change-log replay (named vertices, weight change, delete).
	log := "@1\naddvertex hub\nattach hub 0 1\nattach hub 100 1\nattach hub 200 1\n@2\nsetweight 0 1 5\ndeledge 2 3\n"
	cl, err := changelog.Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	rep := changelog.NewReplayer(cl, ps)
	if err := rep.ReplayAll(e); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "after change-log replay")
	hub, ok := rep.Resolve("hub")
	if !ok || !e.Graph().Has(hub) {
		t.Fatal("hub vertex missing after replay")
	}

	// Phase 4: processor crash and checkpoint-free recovery.
	if _, err := e.FailProcessor(3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "after failure recovery")

	// Phase 5: checkpoint, restore onto a fresh engine, keep going.
	var ckpt bytes.Buffer
	if err := e.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadCheckpoint(&ckpt, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, restored, "after restore")

	// Phase 6: the restored engine rebalances and stays exact.
	if err := restored.ApplyBatch(&core.Batch{Ops: []core.Mutation{core.RepartitionOp(nil)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, restored, "after repartition")

	// Final: closeness ranking equals the oracle's and paths realise
	// distances.
	scores := restored.Scores()
	exact := centrality.FromDistances(sssp.APSP(restored.Graph(), 0),
		restored.Graph().Vertices(), restored.Graph().NumIDs())
	for _, v := range restored.Graph().Vertices() {
		d := scores.Classic[v] - exact.Classic[v]
		if d > 1e-12 || d < -1e-12 {
			t.Fatalf("closeness of %d: %g vs %g", v, scores.Classic[v], exact.Classic[v])
		}
	}
	top := centrality.TopK(scores, scores.Classic, 1)
	p, err := restored.Path(top[0], hub)
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := restored.PathLength(p); l != restored.Distance(top[0], hub) {
		t.Fatal("path does not realise distance")
	}
}

// TestIntegrationWireLifecycle runs a condensed lifecycle over the real TCP
// wire: dynamics + convergence with serialised exchanges.
func TestIntegrationWireLifecycle(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 321, gen.Config{MaxWeight: 2})
	e, err := core.New(g, core.Options{P: 6, Seed: 321, Runtime: runtime.WireTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	batch := &core.VertexBatch{
		Count:    4,
		Internal: []core.BatchEdge{{A: 0, B: 1, W: 1}, {A: 2, B: 3, W: 1}},
		External: []core.AttachEdge{{New: 0, To: 10, W: 1}, {New: 2, To: 150, W: 2}},
	}
	if err := e.ApplyBatch(&core.Batch{Ops: []core.Mutation{
		core.VertexAdd(batch, &core.RoundRobinPS{}),
		core.EdgeDelete([2]graph.ID{0, 1}),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "wire lifecycle")
}
