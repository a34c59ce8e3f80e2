package anytime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/runtime"
	"aacc/internal/sssp"
	"aacc/internal/transport"
	"aacc/internal/workload"
)

// outageRuntime fails Exchange on demand, modelling a wire transport whose
// rounds became undeliverable.
type outageRuntime struct {
	runtime.Runtime
	fail atomic.Bool
}

func (o *outageRuntime) Exchange(out [][]*cluster.Mail) ([][]*cluster.Mail, error) {
	if o.fail.Load() {
		return nil, errors.New("injected exchange outage")
	}
	return o.Runtime.Exchange(out)
}

func pollGauge(t *testing.T, reg *obs.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Gauge(name, "").Value() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s = %v, want %v", name, reg.Gauge(name, "").Value(), want)
}

// TestSessionDegradesAndRecovers: an exchange outage flips the session to
// Degraded — visible in snapshots and the aacc_session_degraded gauge — while
// it keeps serving the last good epoch; once the transport heals the session
// recovers and converges to the exact oracle distances.
func TestSessionDegradesAndRecovers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	g := testGraph(100)
	ref := g.Clone()
	reg := obs.NewRegistry()
	var or *outageRuntime
	s := mustSession(t, g, Options{
		StartPaused: true,
		Engine: core.Options{P: 4, Seed: 7, Obs: reg,
			RuntimeFactory: func(p int, model logp.Params) (runtime.Runtime, error) {
				or = &outageRuntime{Runtime: runtime.NewSim(p, model)}
				return or, nil
			}},
	})
	healthy := s.Snapshot()
	if healthy.Degraded || healthy.Fault != "" {
		t.Fatalf("fresh session degraded: %+v", healthy)
	}

	or.fail.Store(true)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	sn, err := s.WaitFor(ctx, func(sn *Snapshot) bool { return sn.Degraded })
	if err != nil {
		t.Fatal(err)
	}
	if sn.Fault == "" {
		t.Fatal("degraded snapshot carries no fault description")
	}
	if sn.Converged || sn.Exhausted {
		t.Fatalf("degraded snapshot also converged=%t exhausted=%t", sn.Converged, sn.Exhausted)
	}
	// The session keeps serving the last good epoch's rows.
	if sn.Step != healthy.Step {
		t.Fatalf("degraded session advanced: step %d -> %d", healthy.Step, sn.Step)
	}
	pollGauge(t, reg, "aacc_session_degraded", 1)
	if reg.Counter("aacc_engine_step_failures_total", "").Value() < 1 {
		t.Fatal("no step failures counted during the outage")
	}

	or.fail.Store(false)
	final, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Converged || final.Degraded || final.Fault != "" {
		t.Fatalf("after recovery: converged=%t degraded=%t fault=%q",
			final.Converged, final.Degraded, final.Fault)
	}
	sameRows(t, snapshotRows(final), sssp.APSP(ref, 0))
	pollGauge(t, reg, "aacc_session_degraded", 0)
}

// TestSessionMutationBudgetTripPublishesOnce is the double-publish
// regression: a barrier deletion whose internal convergence spends the step
// budget must produce exactly one new epoch, carrying both the mutation and
// the Exhausted transition.
func TestSessionMutationBudgetTripPublishesOnce(t *testing.T) {
	g := testGraph(80)
	dels := workload.RandomEdgeDeletions(g, 1, 5)
	s := mustSession(t, g, Options{StartPaused: true, StepBudget: 1})
	before := s.Snapshot()

	if err := apply(s, core.EdgeDelete(dels...)); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn.Epoch != before.Epoch+1 {
		t.Fatalf("budget-tripping mutation published %d epochs, want 1", sn.Epoch-before.Epoch)
	}
	if !sn.Exhausted {
		t.Fatal("internal barrier steps did not trip the step budget")
	}
	if sn.NumEdges != before.NumEdges-1 {
		t.Fatalf("deletion not visible: %d edges, want %d", sn.NumEdges, before.NumEdges-1)
	}
}

// TestSessionWireFaultyStress is the acceptance run: a real TCP loopback
// mesh wrapped in a deterministic fault injector, mutations streaming in,
// and the session must neither panic nor hang — degraded epochs come and go,
// injected faults land in the metrics, and the recovered result matches the
// sequential oracle exactly.
func TestSessionWireFaultyStress(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	g := testGraph(100)
	mirror := g.Clone()
	reg := obs.NewRegistry()
	var faulty *transport.Faulty
	s := mustSession(t, g, Options{
		Engine: core.Options{P: 4, Seed: 7, Obs: reg,
			RuntimeFactory: func(p int, model logp.Params) (runtime.Runtime, error) {
				mesh, err := transport.NewTCPLoopback(p)
				if err != nil {
					return nil, err
				}
				faulty = transport.NewFaulty(mesh, transport.FaultOptions{Rate: 0.25, Seed: 17})
				return runtime.NewWire(p, model, core.WireCodec{}, faulty), nil
			}},
	})

	// Watcher: record whether any published epoch was Degraded.
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var sawDegraded atomic.Bool
	go func() {
		s.WaitFor(wctx, func(sn *Snapshot) bool {
			if sn.Degraded {
				sawDegraded.Store(true)
			}
			return false
		})
	}()

	// Stream mutations until faults have demonstrably degraded the session
	// at least once, re-converging after each batch.
	for i := 0; i < 40; i++ {
		adds := workload.RandomEdgeAdditions(mirror, 2, 3, int64(100+i))
		if err := apply(s, core.EdgeAdd(adds...)); err != nil {
			t.Fatal(err)
		}
		for _, ed := range adds {
			mirror.AddEdge(ed.U, ed.V, ed.W)
		}
		if _, err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if sawDegraded.Load() {
			break
		}
	}
	if !sawDegraded.Load() {
		t.Fatal("40 mutation rounds at 25% fault rate never degraded the session")
	}

	final, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Converged {
		t.Fatalf("session did not converge (step %d)", final.Step)
	}
	sameRows(t, snapshotRows(final), sssp.APSP(mirror, 0))

	var injected int64
	for _, kind := range []transport.FaultKind{
		transport.FaultDrop, transport.FaultDelay, transport.FaultTruncate, transport.FaultCorrupt,
	} {
		injected += faulty.Injected(kind)
	}
	if injected == 0 {
		t.Fatal("session degraded but the injector counted no faults")
	}
	if reg.Counter("aacc_engine_step_failures_total", "").Value() < 1 {
		t.Fatal("no step failures counted in the registry")
	}
}
