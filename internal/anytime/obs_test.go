package anytime

import (
	"context"
	"testing"
	"time"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
)

// TestSessionObsMetrics drives an instrumented session through queries,
// mutations and convergence, and checks each session-level metric family.
func TestSessionObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(120, 2, 9, gen.Config{})
	s, err := New(context.Background(), g, Options{
		Engine:     core.Options{P: 4, Seed: 9, Obs: reg},
		StepBudget: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Snapshot()
	}
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 0, V: 100, W: 1})); err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Gauge("aacc_session_epoch", "").Value(); got != float64(final.Epoch) {
		t.Errorf("epoch gauge = %v, want %d", got, final.Epoch)
	}
	if got := reg.Counter("aacc_session_epochs_total", "").Value(); got < 2 {
		t.Errorf("epochs_total = %v, want >= 2", got)
	}
	if got := reg.Histogram("aacc_session_publish_seconds", "", nil).Count(); got == 0 {
		t.Error("publish latency histogram empty")
	}
	// At least the 5 explicit queries plus the Wait polls.
	if got := reg.Counter("aacc_session_queries_total", "").Value(); got < 5 {
		t.Errorf("queries_total = %v, want >= 5", got)
	}
	if got := reg.Histogram("aacc_session_snapshot_age_seconds", "", nil).Count(); got < 5 {
		t.Errorf("snapshot age histogram has %d observations, want >= 5", got)
	}
	if got := reg.Counter("aacc_session_mutations_total", "").Value(); got != 1 {
		t.Errorf("mutations_total = %v, want 1", got)
	}
	if got := reg.Histogram("aacc_session_mutation_apply_seconds", "", nil).Count(); got != 1 {
		t.Errorf("apply latency histogram has %d observations, want 1", got)
	}
	if got := reg.Gauge("aacc_session_queue_depth", "").Value(); got != 0 {
		t.Errorf("queue depth = %v at rest, want 0", got)
	}
	if got := reg.Gauge("aacc_session_converged", "").Value(); got != 1 {
		t.Errorf("converged gauge = %v, want 1", got)
	}
	left := reg.Gauge("aacc_session_step_budget_remaining", "").Value()
	if want := float64(500 - final.Step); left != want {
		t.Errorf("budget remaining = %v, want %v", left, want)
	}
	if sn := s.Snapshot(); sn.Age() < 0 {
		t.Errorf("snapshot age negative: %v", sn.Age())
	}
}

// TestSessionObsExhaustionGauge: running out of budget flips the exhausted
// gauge and pins the remaining-steps gauge at 0.
func TestSessionObsExhaustionGauge(t *testing.T) {
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(150, 2, 5, gen.Config{})
	s, err := New(context.Background(), g, Options{
		Engine:     core.Options{P: 4, Seed: 5, Obs: reg},
		StepBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sn, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Exhausted {
		t.Skip("session converged before exhausting (graph too easy)")
	}
	if got := reg.Gauge("aacc_session_exhausted", "").Value(); got != 1 {
		t.Errorf("exhausted gauge = %v, want 1", got)
	}
	if got := reg.Gauge("aacc_session_step_budget_remaining", "").Value(); got != 0 {
		t.Errorf("budget remaining = %v, want 0", got)
	}
}

// TestSessionDone: the Done channel closes exactly when the session stops.
func TestSessionDone(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 3, gen.Config{})
	s, err := New(context.Background(), g, Options{Engine: core.Options{P: 2, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
		t.Fatal("Done closed on a live session")
	default:
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after Close")
	}
}
