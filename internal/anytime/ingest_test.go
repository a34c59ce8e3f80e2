package anytime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/runtime"
	"aacc/internal/trace"
)

// epochRecorder captures every published snapshot in publication order. The
// session's publish emits one KindEpoch trace event right after swapping in
// the new snapshot, on the orchestration goroutine, so loading the current
// snapshot from inside the event callback observes exactly the epoch that
// was just published — no epoch can be missed or double-counted.
type epochRecorder struct {
	s  atomic.Pointer[Session]
	mu sync.Mutex
	sn []*Snapshot
}

func (r *epochRecorder) StepDone(core.StepReport, cluster.Stats) {}

func (r *epochRecorder) Event(kind, details string) {
	// Only publication events; KindEpoch is also used for the exhaustion
	// transition note that precedes its publish.
	if kind != trace.KindEpoch || !strings.HasPrefix(details, "epoch ") {
		return
	}
	s := r.s.Load()
	if s == nil {
		return // epoch 1, published before the test could attach the session
	}
	r.mu.Lock()
	r.sn = append(r.sn, s.cur.Load())
	r.mu.Unlock()
}

func (r *epochRecorder) snapshots() []*Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Snapshot(nil), r.sn...)
}

// oracleApply applies one mutation to the oracle engine exactly as the
// session's pipeline promises to: alone, in order, with a failing op
// mutating nothing and the stream continuing past it.
func oracleApply(t *testing.T, e *core.Engine, m core.Mutation) {
	t.Helper()
	b := &core.Batch{Ops: []core.Mutation{m.Clone()}}
	if err := e.ApplyBatch(b); err != nil {
		var be *core.BatchError
		if !errors.As(err, &be) {
			t.Fatalf("oracle apply: %v", err)
		}
	}
}

// randomMutation draws one valid mutation over vertices [0,n): edge
// additions (sometimes several edges, sometimes none), eager and barrier
// deletions, and weight sets biased toward pairs from known (edges the
// stream has seen — some since deleted, exercising the per-op failure
// path). known must be maintained by the caller; probing the live session
// graph from the producer goroutine would race with the orchestrator.
func randomMutation(rng *rand.Rand, n int, known [][2]graph.ID) core.Mutation {
	pair := func() (graph.ID, graph.ID) {
		u := graph.ID(rng.Intn(n))
		v := graph.ID(rng.Intn(n))
		for v == u {
			v = graph.ID(rng.Intn(n))
		}
		return u, v
	}
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		edges := make([]graph.EdgeTriple, rng.Intn(4))
		for i := range edges {
			u, v := pair()
			edges[i] = graph.EdgeTriple{U: u, V: v, W: int32(1 + rng.Intn(9))}
		}
		return core.EdgeAdd(edges...)
	case 4, 5:
		u, v := pair()
		return core.EdgeDeleteEager([2]graph.ID{u, v})
	case 6:
		u, v := pair()
		return core.EdgeDelete([2]graph.ID{u, v})
	default:
		// Prefer a known pair so weight sets mostly exercise the
		// decomposition path instead of only failing validation.
		if len(known) > 0 && rng.Intn(4) > 0 {
			p := known[rng.Intn(len(known))]
			return core.WeightSet(p[0], p[1], int32(1+rng.Intn(9)))
		}
		u, v := pair()
		return core.WeightSet(u, v, int32(1+rng.Intn(9)))
	}
}

// TestSessionIngestMatchesSequentialOracle is the pipeline's correctness
// property: a random mutation stream pushed through the session — random
// batching from random enqueue timing, coalescing at dequeue, one publish
// per drained batch — yields, at EVERY published epoch, distances
// bit-identical to a sequential oracle that applies the same ops one at a
// time at the same schedule positions. (Step, AppliedOps) identifies each
// epoch's schedule position: an epoch advances by RC steps or by applied
// ops, and the oracle replays exactly that delta. Runs for Workers 1 and 4;
// `go test -race` covers the producer/orchestrator handoff.
func TestSessionIngestMatchesSequentialOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n, p = 60, 4
			g := testGraph(n)
			ref := g.Clone()
			rng := rand.New(rand.NewSource(int64(1000 + workers)))

			rec := &epochRecorder{}
			s := mustSession(t, g, Options{
				PublishEvery: 1,
				IngestQueue:  16,
				StepInterval: 200 * time.Microsecond,
				Engine:       core.Options{P: p, Seed: 7, Workers: workers, Tracer: rec},
			})
			rec.s.Store(s)

			oracle, err := core.New(ref, core.Options{P: p, Seed: 7, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()

			// Stream ~120 ops with jittered pacing so drains catch batches of
			// every size, mixing fire-and-forget with synchronous waits.
			var ops []core.Mutation
			known := make([][2]graph.ID, 0, 256)
			for _, ed := range ref.Edges() {
				known = append(known, [2]graph.ID{ed.U, ed.V})
			}
			for i := 0; i < 120; i++ {
				m := randomMutation(rng, n, known)
				if m.Kind == core.MutEdgeAdd {
					for _, ed := range m.Edges {
						known = append(known, [2]graph.ID{ed.U, ed.V})
					}
				}
				if rng.Intn(5) == 0 {
					// Synchronous path; a per-op rejection (weight set on a
					// missing edge, say) still counts as a consumed op that
					// mutated nothing — exactly what the oracle replays.
					_ = apply(s, m)
				} else if err := s.Enqueue(m); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				ops = append(ops, m)
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
				}
			}
			if err := s.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			snaps := rec.snapshots()
			if len(snaps) == 0 {
				t.Fatal("no epochs recorded")
			}
			prevStep, prevOps := 0, 0
			for _, sn := range snaps {
				if sn.AppliedOps < prevOps || sn.Step < prevStep {
					t.Fatalf("epoch %d regressed: step %d->%d ops %d->%d",
						sn.Epoch, prevStep, sn.Step, prevOps, sn.AppliedOps)
				}
				for k := prevOps; k < sn.AppliedOps; k++ {
					oracleApply(t, oracle, ops[k])
				}
				for oracle.StepCount() < sn.Step {
					if _, err := oracle.Step(); err != nil {
						t.Fatalf("oracle step: %v", err)
					}
				}
				if oracle.StepCount() != sn.Step {
					t.Fatalf("epoch %d: oracle at step %d, snapshot at %d",
						sn.Epoch, oracle.StepCount(), sn.Step)
				}
				sameRows(t, snapshotRows(sn), oracle.Distances())
				prevStep, prevOps = sn.Step, sn.AppliedOps
			}
			if prevOps != len(ops) {
				t.Fatalf("final epoch covers %d/%d ops", prevOps, len(ops))
			}
		})
	}
}

// TestSessionIngestErrorOnFull: under the fail-fast policy a stalled
// session rejects the overflow op with ErrQueueFull, every accepted op
// still applies exactly once, and the queue-depth gauge tracks fill and
// drain.
func TestSessionIngestErrorOnFull(t *testing.T) {
	g := testGraph(40)
	s := mustSession(t, g, Options{
		StartPaused:  true,
		IngestQueue:  4,
		IngestPolicy: ErrorOnFull,
		Engine:       core.Options{P: 4, Seed: 7},
	})
	entered, stall := make(chan struct{}), make(chan struct{})
	go s.do("stall", func() error { close(entered); <-stall; return nil })
	<-entered

	accepted := 0
	for i := 0; i < 4; i++ {
		m := core.EdgeAdd(graph.EdgeTriple{U: 0, V: graph.ID(30 + i), W: 1})
		if err := s.Enqueue(m); err != nil {
			t.Fatalf("enqueue %d with free slots: %v", i, err)
		}
		accepted++
	}
	if err := s.Enqueue(core.EdgeAdd(graph.EdgeTriple{U: 0, V: 39, W: 1})); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow enqueue: %v, want ErrQueueFull", err)
	}

	close(stall)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn.AppliedOps != accepted {
		t.Fatalf("applied %d ops, want %d", sn.AppliedOps, accepted)
	}
	for i := 0; i < accepted; i++ {
		if sn.Distance(0, graph.ID(30+i)) != 1 {
			t.Fatalf("accepted edge 0-%d not applied", 30+i)
		}
	}
}

// TestSessionIngestBlockOnFull: the default policy blocks the producer on a
// full queue until the orchestrator drains a slot, then the op goes through.
func TestSessionIngestBlockOnFull(t *testing.T) {
	g := testGraph(40)
	s := mustSession(t, g, Options{
		StartPaused: true,
		IngestQueue: 2,
		Engine:      core.Options{P: 4, Seed: 7},
	})
	entered, stall := make(chan struct{}), make(chan struct{})
	go s.do("stall", func() error { close(entered); <-stall; return nil })
	<-entered

	for i := 0; i < 2; i++ {
		if err := s.Enqueue(core.EdgeAdd(graph.EdgeTriple{U: 0, V: graph.ID(30 + i), W: 1})); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- s.Enqueue(core.EdgeAdd(graph.EdgeTriple{U: 0, V: 35, W: 1}))
	}()
	select {
	case err := <-blocked:
		t.Fatalf("enqueue on a full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stall)
	if err := <-blocked; err != nil {
		t.Fatalf("unblocked enqueue: %v", err)
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sn := s.Snapshot(); sn.AppliedOps != 3 || sn.Distance(0, 35) != 1 {
		t.Fatalf("after drain: %d ops, d(0,35)=%d", sn.AppliedOps, sn.Distance(0, 35))
	}
}

// TestSessionIngestCloseRejectsPending: closing a session with a stalled,
// loaded queue gives every pending op exactly one verdict — applied (nil,
// and visible in the final snapshot) or ErrClosed (and absent) — with no op
// lost or double-applied.
func TestSessionIngestCloseRejectsPending(t *testing.T) {
	const pending = 6
	g := testGraph(40)
	base := g.NumEdges()
	// Pick edges absent from the base graph so every applied op grows the
	// edge count by exactly one.
	var absent [][2]graph.ID
	for u := graph.ID(1); len(absent) < pending && u < 40; u++ {
		for v := u + 1; len(absent) < pending && v < 40; v++ {
			if !g.HasEdge(u, v) {
				absent = append(absent, [2]graph.ID{u, v})
			}
		}
	}
	s := mustSession(t, g, Options{
		StartPaused: true,
		IngestQueue: pending,
		Engine:      core.Options{P: 4, Seed: 7},
	})
	entered, stall := make(chan struct{}), make(chan struct{})
	go s.do("stall", func() error { close(entered); <-stall; return nil })
	<-entered

	verdicts := make(chan error, pending)
	for i := 0; i < pending; i++ {
		pair := absent[i]
		go func() {
			verdicts <- apply(s, core.EdgeAdd(graph.EdgeTriple{U: pair[0], V: pair[1], W: 1}))
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.mq) < pending {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", len(s.mq), pending)
		}
		time.Sleep(time.Millisecond)
	}
	// Release the loop and close concurrently: each pending op must either
	// win the drain race (applied + published) or get ErrClosed untouched.
	close(stall)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	applied := 0
	for i := 0; i < pending; i++ {
		switch err := <-verdicts; {
		case err == nil:
			applied++
		case errors.Is(err, ErrClosed):
		default:
			t.Fatalf("unexpected verdict: %v", err)
		}
	}
	sn := s.cur.Load()
	if sn.AppliedOps != applied {
		t.Fatalf("%d nil verdicts but %d applied ops", applied, sn.AppliedOps)
	}
	if sn.NumEdges != base+applied {
		t.Fatalf("%d applied ops but edge count went %d -> %d", applied, base, sn.NumEdges)
	}
}

// TestSessionIngestDuringDegraded: a session whose exchange rounds are
// failing still ingests mutations — the pipeline applies them between step
// retries and each batch publishes an epoch carrying the op count.
func TestSessionIngestDuringDegraded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	g := testGraph(60)
	var or *outageRuntime
	s := mustSession(t, g, Options{
		Engine: core.Options{P: 4, Seed: 7,
			RuntimeFactory: func(p int, model logp.Params) (runtime.Runtime, error) {
				or = &outageRuntime{Runtime: runtime.NewSim(p, model)}
				return or, nil
			}},
	})
	or.fail.Store(true)
	if _, err := s.WaitFor(ctx, func(sn *Snapshot) bool { return sn.Degraded }); err != nil {
		t.Fatal(err)
	}
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 0, V: 55, W: 1})); err != nil {
		t.Fatalf("mutation during outage: %v", err)
	}
	sn := s.Snapshot()
	if sn.AppliedOps != 1 || sn.Distance(0, 55) != 1 {
		t.Fatalf("degraded ingest: %d ops, d(0,55)=%d", sn.AppliedOps, sn.Distance(0, 55))
	}
	or.fail.Store(false)
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionIngestCoalesceMetrics: a stalled-then-drained burst of adjacent
// edge additions coalesces into fewer units than ops, and the instruments
// record the ratio and batch size.
func TestSessionIngestCoalesceMetrics(t *testing.T) {
	g := testGraph(40)
	reg := obs.NewRegistry()
	s := mustSession(t, g, Options{
		StartPaused: true,
		IngestQueue: 16,
		Engine:      core.Options{P: 4, Seed: 7, Obs: reg},
	})
	entered, stall := make(chan struct{}), make(chan struct{})
	go s.do("stall", func() error { close(entered); <-stall; return nil })
	<-entered
	for i := 0; i < 8; i++ {
		if err := s.Enqueue(core.EdgeAdd(graph.EdgeTriple{U: 0, V: graph.ID(30 + i), W: 1})); err != nil {
			t.Fatal(err)
		}
	}
	close(stall)
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	ops := reg.Counter("aacc_session_ingest_ops_total", "").Value()
	units := reg.Counter("aacc_session_ingest_units_total", "").Value()
	if ops != 8 {
		t.Fatalf("ingest ops counter = %v, want 8", ops)
	}
	if units >= ops || units < 1 {
		t.Fatalf("adjacent additions did not coalesce: %v units for %v ops", units, ops)
	}
	if depth := reg.Gauge("aacc_session_ingest_queue_depth", "").Value(); depth != 0 {
		t.Fatalf("queue depth after drain = %v, want 0", depth)
	}
}
