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
// install_relax once per relax with sources).
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
	install := reg.Histogram("aacc_engine_shard_imbalance", "", nil, obs.L("phase", "install_relax"))
	if install.Count() == 0 {
		t.Error("install_relax shard-imbalance histogram saw no observations")
	}
	// Deletions drive the reseed fan-out.
	var ed [2]graph.ID
	for _, tr := range e.Graph().Edges() {
		ed = [2]graph.ID{tr.U, tr.V}
		break
	}
	if err := e.applyEdgeDeletions([][2]graph.ID{ed}); err != nil {
		t.Fatal(err)
	}
	reseed := reg.Histogram("aacc_engine_shard_imbalance", "", nil, obs.L("phase", "reseed"))
	if reseed.Count() == 0 {
		t.Error("reseed shard-imbalance histogram saw no observations")
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
