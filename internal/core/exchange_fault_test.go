package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"aacc/internal/cluster"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/runtime"
)

// flakyRuntime wraps the in-process runtime and fails Exchange on demand,
// modelling a wire transport whose rounds became undeliverable.
type flakyRuntime struct {
	runtime.Runtime
	fail  atomic.Bool
	fails atomic.Int64
}

func (f *flakyRuntime) Exchange(out [][]*cluster.Mail) ([][]*cluster.Mail, error) {
	if f.fail.Load() {
		f.fails.Add(1)
		return nil, errors.New("injected exchange outage")
	}
	return f.Runtime.Exchange(out)
}

func flakyEngine(t *testing.T, p int) (*Engine, *flakyRuntime, *obs.Registry) {
	t.Helper()
	var fr *flakyRuntime
	reg := obs.NewRegistry()
	e, err := New(gen.Grid(7, 8, gen.Config{MaxWeight: 3}), Options{
		P:    p,
		Seed: 7,
		Obs:  reg,
		RuntimeFactory: func(p int, model logp.Params) (runtime.Runtime, error) {
			fr = &flakyRuntime{Runtime: runtime.NewSim(p, model)}
			return fr, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, fr, reg
}

// TestStepErrorLeavesStateUnchanged is the rollback contract: a failed step
// changes no distances, does not advance the step count, and wraps
// ErrExchange.
func TestStepErrorLeavesStateUnchanged(t *testing.T) {
	e, fr, reg := flakyEngine(t, 4)
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Distances()
	stepBefore := e.StepCount()

	fr.fail.Store(true)
	_, err := e.Step()
	if err == nil {
		t.Fatal("step over a failed exchange succeeded")
	}
	if !errors.Is(err, ErrExchange) {
		t.Fatalf("step error = %v, want ErrExchange", err)
	}
	if e.StepCount() != stepBefore {
		t.Fatalf("failed step advanced the count: %d -> %d", stepBefore, e.StepCount())
	}
	after := e.Distances()
	for v, row := range before {
		for u, d := range row {
			if after[v][u] != d {
				t.Fatalf("failed step changed d(%d,%d): %d -> %d", v, u, d, after[v][u])
			}
		}
	}
	if got := reg.Counter("aacc_engine_step_failures_total", "").Value(); got != 1 {
		t.Fatalf("aacc_engine_step_failures_total = %v, want 1", got)
	}
}

// TestRecoveryAfterOutageConvergesExactly runs steps, breaks the exchange for
// several attempts mid-run, repairs it, and requires convergence to the same
// exact distances a clean run produces — the full-row resend protocol must
// not lose updates that were in flight when the rounds died.
func TestRecoveryAfterOutageConvergesExactly(t *testing.T) {
	e, fr, _ := flakyEngine(t, 5)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	fr.fail.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := e.Step(); err == nil {
			t.Fatal("expected failed step during the outage")
		}
	}
	fr.fail.Store(false)
	mustRun(t, e)
	checkExact(t, e)
	if fr.fails.Load() != 3 {
		t.Fatalf("injected %d failures, want 3", fr.fails.Load())
	}
}

// TestRunAbortsOnExchangeFailure pins Run's contract: the error propagates
// instead of spinning, and a later Run resumes and converges.
func TestRunAbortsOnExchangeFailure(t *testing.T) {
	e, fr, _ := flakyEngine(t, 4)
	fr.fail.Store(true)
	if _, err := e.Run(); !errors.Is(err, ErrExchange) {
		t.Fatalf("Run error = %v, want ErrExchange", err)
	}
	fr.fail.Store(false)
	mustRun(t, e)
	checkExact(t, e)
}

// TestOutageDuringDynamicChanges interleaves mutations with exchange
// outages: updates applied while rounds are failing must still reach every
// processor once the transport heals.
func TestOutageDuringDynamicChanges(t *testing.T) {
	e, fr, _ := flakyEngine(t, 4)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	fr.fail.Store(true)
	if _, err := e.Step(); err == nil {
		t.Fatal("expected failure")
	}
	// Mutate mid-outage: the new edge's updates join the rolled-back rows.
	if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 0, V: 30, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(); err == nil {
		t.Fatal("expected failure")
	}
	fr.fail.Store(false)
	mustRun(t, e)
	checkExact(t, e)
}
