package core

import (
	"strings"
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
)

// TestEngineObsInstrumentation runs an instrumented analysis to convergence
// and checks that every engine-phase histogram saw one observation per step,
// the counters accumulated, and the convergence gauges settled.
func TestEngineObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(150, 2, 7, gen.Config{})
	e, err := New(g, Options{P: 4, Seed: 7, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	steps, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, phase := range []string{"collect", "exchange", "install_relax", "strategies"} {
		h := reg.Histogram("aacc_engine_phase_seconds", "", nil, obs.L("phase", phase))
		if got := h.Count(); got != uint64(steps) {
			t.Errorf("phase %q observed %d durations, want %d", phase, got, steps)
		}
	}
	if got := reg.Counter("aacc_engine_steps_total", "").Value(); got != float64(steps) {
		t.Errorf("steps_total = %v, want %d", got, steps)
	}
	if reg.Counter("aacc_engine_rows_sent_total", "").Value() == 0 {
		t.Error("rows_sent_total stayed 0 over a full analysis")
	}
	if reg.Counter("aacc_engine_messages_total", "").Value() == 0 {
		t.Error("messages_total stayed 0 over a full analysis")
	}
	if got := reg.Gauge("aacc_engine_residual_rows", "").Value(); got != 0 {
		t.Errorf("residual = %v at convergence, want 0", got)
	}
	if got := reg.Gauge("aacc_engine_converged", "").Value(); got != 1 {
		t.Errorf("converged gauge = %v, want 1", got)
	}
	if got := reg.Gauge("aacc_engine_step", "").Value(); got != float64(e.StepCount()) {
		t.Errorf("step gauge = %v, want %d", got, e.StepCount())
	}

	// The runtime propagated the registry: transport counters are live too.
	if reg.Counter("aacc_transport_bytes_total", "").Value() == 0 {
		t.Error("runtime traffic counters not wired (bytes_total stayed 0)")
	}
	if reg.Counter("aacc_transport_exchange_rounds_total", "").Value() == 0 {
		t.Error("runtime exchange rounds not wired")
	}

	// And the whole catalogue renders.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"aacc_engine_phase_seconds_bucket", "aacc_engine_steps_total", "aacc_transport_bytes_total"} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

// TestEngineObsWorkerPool checks the worker-pool instruments: the workers
// gauge reports the configured pool size and the per-phase shard-imbalance
// histograms record one ratio >= 1 per sharded fan-out (IA at construction,
// reseed once per mutation-time sweep). Relax is not sharded, so no
// install_relax imbalance series exists.
func TestEngineObsWorkerPool(t *testing.T) {
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(150, 2, 7, gen.Config{})
	e, err := New(g, Options{P: 4, Seed: 7, Obs: reg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("aacc_engine_workers", "").Value(); got != 4 {
		t.Errorf("workers gauge = %v, want 4", got)
	}
	ia := reg.Histogram("aacc_engine_shard_imbalance", "", nil, obs.L("phase", "ia"))
	if ia.Count() == 0 {
		t.Error("ia shard-imbalance histogram saw no observations")
	}
	// An edge addition drives the mutation-time sweep, which records under
	// the reseed label.
	reseed := reg.Histogram("aacc_engine_shard_imbalance", "", nil, obs.L("phase", "reseed"))
	if reseed.Count() != 0 {
		t.Fatalf("reseed shard-imbalance histogram has %d observations before any mutation", reseed.Count())
	}
	if _, ok := e.Graph().Weight(0, 140); ok {
		t.Fatal("test edge {0,140} already exists")
	}
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 0, V: 140, W: 1}}); err != nil {
		t.Fatal(err)
	}
	added := reseed.Count()
	if added == 0 {
		t.Error("edge addition recorded no reseed shard-imbalance observation")
	}
	// Deletions drive the invalidation and reseed fan-outs.
	if err := e.applyEdgeDeletions([][2]graph.ID{{0, 140}}); err != nil {
		t.Fatal(err)
	}
	if reseed.Count() == added {
		t.Error("edge deletion recorded no reseed shard-imbalance observation")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"aacc_engine_workers", "aacc_engine_shard_imbalance_bucket"} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "aacc_engine_shard_imbalance") && strings.Contains(line, `phase="install_relax"`) {
			t.Errorf("exposition has an install_relax shard-imbalance series: %s", line)
		}
	}
}

// TestEngineObsDisabledIsInert: with no registry the engine must not build
// an instrument set (the Step fast path branches on exactly this).
func TestEngineObsDisabledIsInert(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 3, gen.Config{})
	e, err := New(g, Options{P: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.om != nil {
		t.Fatal("engine built metrics without a registry")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// spanList is a Tracer keeping every span (the engine emits from one
// goroutine).
type spanList []obs.Span

func (l *spanList) Span(sp obs.Span) { *l = append(*l, sp) }

func (l spanList) named(name string) []obs.Span {
	var out []obs.Span
	for _, sp := range l {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestTracerSeesAllDynamicKinds: every applied mutation is one engine.apply
// span naming its kind and size; a failing op and a processor failure are
// flight-recorder incidents instead, with no span.
func TestTracerSeesAllDynamicKinds(t *testing.T) {
	var spans spanList
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(80, 2, 5, gen.Config{})
	e, err := New(g, Options{P: 4, Seed: 5, Tracer: &spans, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ed := e.Graph().Edges()[0]
	batch := &VertexBatch{Count: 1, External: []AttachEdge{{New: 0, To: 4, W: 1}}}
	if err := e.ApplyBatch(&Batch{Ops: []Mutation{
		EdgeAdd(graph.EdgeTriple{U: 0, V: 60, W: 1}),
		EdgeDelete([2]graph.ID{0, 60}),
		WeightSet(ed.U, ed.V, ed.W+1),
		VertexAdd(batch, &RoundRobinPS{}),
		VertexRemove(70),
		RepartitionOp(nil),
	}}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"edge-add: 1 edges",
		"edge-delete: 1 edges",
		"set-weight: 1 edges",
		"vertex-add: 1 vertices, 1 edges via RoundRobin-PS",
		"vertex-remove: 1 vertices",
		"repartition: ",
	}
	applied := spans.named("engine.apply")
	if len(applied) != len(want) {
		t.Fatalf("%d engine.apply spans, want %d: %+v", len(applied), len(want), applied)
	}
	for i, sp := range applied {
		if sp.Component != "engine" || !strings.HasPrefix(sp.Detail, want[i]) || sp.Err != "" {
			t.Fatalf("engine.apply span %d = %+v, want detail %q", i, sp, want[i])
		}
	}

	if err := e.ApplyBatch(&Batch{Ops: []Mutation{EdgeAdd(graph.EdgeTriple{U: 70, V: 1, W: 1})}}); err == nil {
		t.Fatal("edge to a removed vertex applied")
	}
	if _, err := e.FailProcessor(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(spans.named("engine.apply")); n != len(want) {
		t.Fatalf("the failing op emitted a span: %d engine.apply spans", n)
	}
	kinds := map[string]string{}
	for _, ev := range reg.Events().Events() {
		if ev.Component == "core" {
			kinds[ev.Kind] = ev.Detail
		}
	}
	if !strings.HasPrefix(kinds["processor-failure"], "processor 1 lost ") {
		t.Fatalf("no processor-failure incident: %v", kinds)
	}
	if !strings.HasPrefix(kinds["batch-error"], "op 0/1 failed") {
		t.Fatalf("no batch-error incident: %v", kinds)
	}
}
