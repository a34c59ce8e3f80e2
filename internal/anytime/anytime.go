// Package anytime wraps a core.Engine in a Session: a concurrency layer that
// makes the paper's anytime property operational. The engine itself is
// single-threaded — one goroutine owns it and drives RC steps — while any
// number of goroutines query immutable epoch snapshots lock-free and submit
// graph mutations through a serialized queue that is drained at step
// boundaries. This is the deployment shape the paper motivates: a
// long-running closeness-centrality analysis over a live network, answering
// "who is central right now" at any moment while edits stream in.
//
// Three guarantees:
//
//   - Snapshots are immutable and consistent: every distance row is a deep
//     copy taken at one step boundary (the engine's dv.Store recycles row
//     arrays through a free list, so sharing live rows would be unsound),
//     and all rows in one snapshot come from the same step.
//   - Mutations are serialized: ApplyBatch and Enqueue calls from any
//     goroutine put typed core.Mutation values on one bounded queue; the
//     orchestration goroutine applies them between steps, and ApplyBatch (or
//     a later Flush) returns once a fresh snapshot covering them is
//     published. Two concurrent mutators never interleave inside the engine.
//   - Anytime reads: a snapshot taken mid-run holds exactly the distance
//     upper bounds the engine would report if stopped at that step; between
//     deletions they only improve as epochs advance.
package anytime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aacc/internal/centrality"
	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/obs"
)

// ErrClosed is returned by session operations after Close (or after the
// session's context was cancelled).
var ErrClosed = errors.New("anytime: session closed")

// Engine is the analysis surface a Session orchestrates: stepping, queries
// and the one mutation entry point. *core.Engine implements it (the
// single-process deployment); a multi-process coordinator implements the
// same surface by driving remote workers, so the session layer — snapshots,
// serialized mutations, degraded-mode recovery — is identical in both
// shapes. Engines whose deployment cannot support a mutation kind (vertex
// mutations on a coordinator, say) fail that op with a descriptive error.
type Engine interface {
	Step() (core.StepReport, error)
	Converged() bool
	StepCount() int
	Graph() graph.View
	Stats() cluster.Stats
	Distances() map[graph.ID][]int32
	Close() error

	// ApplyBatch applies an ordered mutation batch, stopping at the first
	// failing op with a *core.BatchError. The session's ingestion pipeline
	// routes every mutation through this single entry point.
	ApplyBatch(b *core.Batch) error
}

var _ Engine = (*core.Engine)(nil)

// Options configures a Session.
type Options struct {
	// Engine configures the wrapped engine (P, partitioner, model, ...).
	// Engine.MaxSteps is ignored; use StepBudget instead. Engine.Tracer,
	// if set, additionally receives the session's session.publish (one per
	// epoch) and session.apply (one per ingest drain) spans, emitted from
	// the orchestration goroutine.
	Engine core.Options

	// PublishEvery publishes a snapshot every k RC steps (default 1).
	// Snapshots are also always published on convergence, on exhaustion,
	// and after every applied mutation, regardless of this cadence.
	PublishEvery int

	// StepBudget stops stepping after this many RC steps (0 = unlimited).
	// An exhausted session still applies mutations and serves snapshots; it
	// only stops spending compute.
	StepBudget int

	// Deadline stops stepping this long after New (0 = none). Like the
	// step budget it marks the session Exhausted rather than closing it.
	Deadline time.Duration

	// StartPaused creates the session idle; call Resume to start stepping.
	// The initial snapshot (epoch 1: the IA phase's local results) is
	// published either way.
	StartPaused bool

	// StepInterval throttles stepping: after each successful RC step the
	// loop idles this long (serving queries, mutations and the deadline
	// throughout) before the next one. Zero steps flat out. Useful to
	// rate-limit a live analysis — or to hold a cluster in-flight long
	// enough to observe mid-run behaviour deterministically.
	StepInterval time.Duration

	// IngestQueue bounds the asynchronous mutation queue (default 256,
	// minimum 1). The orchestration goroutine drains everything queued at
	// each step boundary into one coalesced batch apply and one epoch
	// publication.
	IngestQueue int

	// IngestPolicy selects the backpressure behaviour of a full queue:
	// BlockOnFull (default) blocks the enqueuer until a slot frees,
	// ErrorOnFull fails fast with ErrQueueFull. The policy applies to
	// Enqueue; the synchronous ApplyBatch and Flush always wait for a slot.
	IngestPolicy QueuePolicy
}

// Snapshot is an immutable view of the analysis at one step boundary.
// All methods are safe for concurrent use by any number of goroutines.
type Snapshot struct {
	// Epoch counts publications, starting at 1 (the post-IA state).
	Epoch int
	// Step is the engine's RC step count when the snapshot was taken.
	Step int
	// Converged reports whether the analysis had reached its fixpoint.
	Converged bool
	// Exhausted reports whether the step budget or deadline had run out.
	Exhausted bool
	// Degraded reports whether RC steps were failing when this snapshot was
	// published: the execution runtime could not deliver an exchange round
	// (wire faults), so the distances are the last good epoch's and the
	// session keeps retrying with backoff until the fault clears.
	Degraded bool
	// Fault describes the failure behind Degraded ("" when healthy).
	Fault string
	// NumVertices and NumEdges describe the graph at the snapshot step.
	NumVertices int
	NumEdges    int
	// AppliedOps counts the mutations consumed from the ingest queue over
	// the session's lifetime up to this snapshot (each was applied, or
	// rejected without mutating). Together with Step it identifies the
	// exact schedule position, which is what the coalesced-vs-oracle
	// bit-identity tests replay against.
	AppliedOps int
	// Stats are the cumulative cluster statistics at the snapshot step.
	Stats cluster.Stats

	dist  map[graph.ID][]int32
	live  []graph.ID
	width int
	minW  int32
	taken time.Time

	scoresOnce sync.Once
	scores     centrality.Scores

	// topk is the epoch's closeness bound index, built by the first top-k
	// read (see topk.go).
	topkOnce sync.Once
	topk     *centrality.BoundState

	// next is closed when the succeeding snapshot is published — the
	// lock-free broadcast WaitFor blocks on.
	next chan struct{}
}

// Vertices returns the live vertices at the snapshot step. The slice is
// shared: callers must not modify it.
func (sn *Snapshot) Vertices() []graph.ID { return sn.live }

// Age returns the time elapsed since this snapshot was published — how
// stale a read is right now. On a converged or exhausted session the
// current snapshot's age grows without bound by design.
func (sn *Snapshot) Age() time.Duration { return time.Since(sn.taken) }

// Row returns v's distance row (indexed by target ID, dv.Inf = unknown), or
// nil if v was dead, negative, or out of range — IDs arrive here straight
// from untrusted query input, so any v is safe (dist is a map keyed by live
// IDs; absent keys, including negative ones, yield nil). The slice is shared
// between all readers of this snapshot: callers must not modify it.
func (sn *Snapshot) Row(v graph.ID) []int32 { return sn.dist[v] }

// Distance returns the snapshot's estimate of d(u,v), dv.Inf if unknown.
func (sn *Snapshot) Distance(u, v graph.ID) int32 {
	row := sn.dist[u]
	if row == nil || int(v) >= len(row) || v < 0 {
		return dv.Inf
	}
	return row[v]
}

// Scores computes closeness centrality from the snapshot's rows. The result
// is computed once per snapshot (lazily, under sync.Once) and shared.
func (sn *Snapshot) Scores() centrality.Scores {
	sn.scoresOnce.Do(func() {
		sn.scores = centrality.FromDistances(sn.dist, sn.live, sn.width)
	})
	return sn.scores
}

// command is one unit of serialized control work (pause/resume) for the
// orchestration goroutine. Mutations do not travel this channel: they enter
// the bounded ingest queue (ingest.go) and apply in coalesced batches.
type command struct {
	name string
	run  func() error
	done chan error
}

// Session owns an Engine on a dedicated orchestration goroutine.
type Session struct {
	eng     Engine
	opts    Options
	om      *sessionObs   // live metrics, nil unless Options.Engine.Obs was set
	rec     *obs.Recorder // flight recorder, nil-safe
	spans   obs.SpanSink  // Options.Engine.Tracer, nil when tracing is off
	started time.Time     // deadline gauge reference point

	cancel context.CancelFunc
	cmds   chan *command
	mq     chan *ingestOp // bounded mutation queue (ingest.go)
	done   chan struct{}
	cur    atomic.Pointer[Snapshot]

	queries   atomic.Int64
	closeOnce sync.Once
	closeErr  error

	// Loop-goroutine state: written only by the orchestration goroutine
	// (command closures run on it too), never read from outside.
	paused       bool
	exhausted    bool
	degraded     bool
	fault        string
	failBackoff  time.Duration
	dirty        bool
	sincePublish int
	epoch        int
	baseStep     int
	appliedOps   int
}

// Failure backoff bounds: after a failed RC step the loop waits before
// retrying the round, doubling from the minimum up to the cap, so a hard
// transport outage does not spin the orchestration goroutine. Queries stay
// lock-free throughout and commands are still served during the wait.
const (
	failBackoffMin = 5 * time.Millisecond
	failBackoffMax = 250 * time.Millisecond
)

// New builds a session over g — which the session takes ownership of — runs
// the DD and IA phases, publishes the initial snapshot and starts the
// orchestration goroutine. Cancelling ctx stops the session as Close does
// (but Close must still be called to release engine resources).
func New(ctx context.Context, g *graph.Graph, opts Options) (*Session, error) {
	eopts := opts.Engine
	eopts.MaxSteps = 0
	eng, err := core.New(g, eopts)
	if err != nil {
		return nil, err
	}
	return NewWith(ctx, eng, opts)
}

// NewWith wraps an already-built engine — a *core.Engine, or a distributed
// coordinator driving remote workers — in a session. The session takes
// ownership of eng (Close closes it). The engine must be freshly
// constructed: its DD and IA phases done, no RC steps driven elsewhere.
// Options.Engine is used only for its Tracer and Obs fields; the engine
// itself was configured by whoever built it.
func NewWith(ctx context.Context, eng Engine, opts Options) (*Session, error) {
	if opts.PublishEvery < 1 {
		opts.PublishEvery = 1
	}
	if opts.IngestQueue < 1 {
		opts.IngestQueue = DefaultIngestQueue
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &Session{
		eng:     eng,
		opts:    opts,
		spans:   opts.Engine.Tracer,
		cancel:  cancel,
		cmds:    make(chan *command),
		mq:      make(chan *ingestOp, opts.IngestQueue),
		done:    make(chan struct{}),
		paused:  opts.StartPaused,
		started: time.Now(),
	}
	if opts.Engine.Obs != nil {
		s.om = newSessionObs(opts.Engine.Obs, opts)
	}
	s.rec = opts.Engine.Obs.Events()
	s.baseStep = eng.StepCount()
	s.publish() // epoch 1: the IA phase's local shortest paths
	if reg := opts.Engine.Obs; reg != nil {
		// Scrape-time staleness: how old the snapshot a query would get
		// right now is. The published snapshot is never nil past this point.
		reg.GaugeFunc("aacc_session_snapshot_staleness_seconds",
			"Age of the currently served snapshot, in seconds, evaluated at scrape time.",
			func() float64 { return s.cur.Load().Age().Seconds() })
	}
	go s.loop(ctx)
	return s, nil
}

// traceKey returns the correlation key for spans and recorder events the
// session emits: the engine's current span key (a distributed coordinator
// reports its command/round seq, so session events line up with per-worker
// spans), or the step count for engines that don't expose one.
func (s *Session) traceKey() uint64 {
	if k, ok := s.eng.(interface{ SpanKey() uint64 }); ok {
		return k.SpanKey()
	}
	return uint64(s.eng.StepCount())
}

// Close stops the orchestration goroutine and releases engine resources.
// Idempotent; concurrent and repeated calls return the first result.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		<-s.done
		s.closeErr = s.eng.Close()
	})
	return s.closeErr
}

// Snapshot returns the current epoch snapshot. Lock-free; never nil.
func (s *Session) Snapshot() *Snapshot {
	s.queries.Add(1)
	sn := s.cur.Load()
	if s.om != nil {
		s.om.queries.Inc()
		s.om.snapshotAge.ObserveDuration(time.Since(sn.taken))
	}
	return sn
}

// Done returns a channel closed once the orchestration goroutine has
// stopped (after Close or context cancellation) — the liveness signal the
// observability endpoint's /healthz reports.
func (s *Session) Done() <-chan struct{} { return s.done }

// WaitFor blocks until the current snapshot satisfies pred and returns it.
// It returns ctx.Err() on cancellation and ErrClosed if the session closes
// while the (final) snapshot still fails pred.
func (s *Session) WaitFor(ctx context.Context, pred func(*Snapshot) bool) (*Snapshot, error) {
	for {
		sn := s.Snapshot()
		if pred(sn) {
			return sn, nil
		}
		select {
		case <-sn.next:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.done:
			if sn = s.cur.Load(); pred(sn) {
				return sn, nil
			}
			return nil, ErrClosed
		}
	}
}

// Wait blocks until the analysis converges or exhausts its budget/deadline.
func (s *Session) Wait(ctx context.Context) (*Snapshot, error) {
	return s.WaitFor(ctx, func(sn *Snapshot) bool { return sn.Converged || sn.Exhausted })
}

// Pause stops stepping after the current step; mutations still apply.
func (s *Session) Pause() error {
	return s.do("pause", func() error { s.paused = true; return nil })
}

// Resume restarts stepping after Pause (or Options.StartPaused).
func (s *Session) Resume() error {
	return s.do("resume", func() error { s.paused = false; return nil })
}

// do enqueues a command and blocks until the orchestration goroutine ran it.
func (s *Session) do(name string, run func() error) error {
	if s.om != nil {
		s.om.queueDepth.Add(1)
		defer s.om.queueDepth.Add(-1)
	}
	cmd := &command{name: name, run: run, done: make(chan error, 1)}
	select {
	case s.cmds <- cmd:
	case <-s.done:
		return ErrClosed
	}
	select {
	case err := <-cmd.done:
		return err
	case <-s.done:
		// The loop may have run the command just before exiting.
		select {
		case err := <-cmd.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// loop is the orchestration goroutine: it alternates between draining the
// command queue and advancing the engine, publishing snapshots on the
// configured cadence and at every state transition.
func (s *Session) loop(ctx context.Context) {
	defer func() {
		if s.dirty {
			s.publish()
		}
		close(s.done)
		// Reject whatever is still queued: pending mutations are never
		// silently dropped nor applied after the session stopped — every
		// waiter gets ErrClosed. (Enqueuers racing Close observe s.done.)
		for {
			select {
			case op := <-s.mq:
				if op.done != nil {
					op.done <- ErrClosed
				}
			default:
				return
			}
		}
	}()
	var deadlineC <-chan time.Time
	if s.opts.Deadline > 0 {
		t := time.NewTimer(s.opts.Deadline)
		defer t.Stop()
		deadlineC = t.C
	}
	for {
		// Control traffic has priority over stepping.
		select {
		case <-ctx.Done():
			return
		case <-deadlineC:
			deadlineC = nil
			s.exhaust("deadline")
			continue
		case cmd := <-s.cmds:
			s.exec(cmd)
			continue
		case op := <-s.mq:
			s.ingest(op)
			continue
		default:
		}
		if s.paused || s.exhausted || s.eng.Converged() {
			select { // idle: block until something changes
			case <-ctx.Done():
				return
			case <-deadlineC:
				deadlineC = nil
				s.exhaust("deadline")
			case cmd := <-s.cmds:
				s.exec(cmd)
			case op := <-s.mq:
				s.ingest(op)
			}
			continue
		}
		if _, err := s.eng.Step(); err != nil {
			// The step did not happen (the engine rolled its state back).
			// Mark the session Degraded — the current snapshot stays valid,
			// it is just not advancing — and retry after a backoff, serving
			// commands, mutations and the deadline while waiting.
			s.degrade(err)
			t := time.NewTimer(s.failBackoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-deadlineC:
				deadlineC = nil
				s.exhaust("deadline")
			case cmd := <-s.cmds:
				s.exec(cmd)
			case op := <-s.mq:
				s.ingest(op)
			case <-t.C:
			}
			t.Stop()
			continue
		}
		recovered := s.degraded
		if recovered {
			s.degraded = false
			s.fault = ""
			s.rec.Record("session", "recovered", s.traceKey(), "exchange rounds delivering again")
		}
		s.failBackoff = 0
		s.dirty = true
		s.sincePublish++
		tripped := s.checkBudget()
		if tripped || recovered || s.eng.Converged() || s.sincePublish >= s.opts.PublishEvery {
			s.publish()
		}
		if s.opts.StepInterval > 0 && !s.exhausted && !s.eng.Converged() {
			t := time.NewTimer(s.opts.StepInterval)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-deadlineC:
				deadlineC = nil
				s.exhaust("deadline")
			case cmd := <-s.cmds:
				s.exec(cmd)
			case op := <-s.mq:
				s.ingest(op)
			case <-t.C:
			}
			t.Stop()
		}
	}
}

// degrade records a failed RC step: the fault is remembered for snapshots,
// the backoff doubles toward its cap, and the first failure of a streak
// publishes the Degraded transition so readers see it immediately.
func (s *Session) degrade(err error) {
	s.fault = err.Error()
	if s.failBackoff == 0 {
		s.failBackoff = failBackoffMin
	} else if s.failBackoff < failBackoffMax {
		s.failBackoff = min(2*s.failBackoff, failBackoffMax)
	}
	if s.degraded {
		return
	}
	s.degraded = true
	s.rec.Record("session", "degraded", s.traceKey(), err.Error())
	s.publish()
}

// exec runs one control command on the orchestration goroutine.
func (s *Session) exec(cmd *command) {
	cmd.done <- cmd.run()
}

// checkBudget flips the session to Exhausted once the step budget is spent,
// reporting whether this call made the transition. It never publishes — the
// caller folds the transition into its own publication.
func (s *Session) checkBudget() bool {
	if s.om != nil {
		s.om.limits(s.opts.StepBudget-(s.eng.StepCount()-s.baseStep),
			s.opts.Deadline-time.Since(s.started))
	}
	if !s.exhausted && s.opts.StepBudget > 0 && s.eng.StepCount()-s.baseStep >= s.opts.StepBudget {
		return s.markExhausted("step budget")
	}
	return false
}

// markExhausted records the out-of-compute transition without publishing,
// reporting whether it was a transition (false if already exhausted).
func (s *Session) markExhausted(reason string) bool {
	if s.exhausted {
		return false
	}
	s.exhausted = true
	kind := "budget-trip"
	if reason == "deadline" {
		kind = "deadline-trip"
	}
	s.rec.Record("session", kind, s.traceKey(), "exhausted: "+reason)
	return true
}

// exhaust marks the session out of compute and publishes the transition
// (the deadline path, where no other publication is imminent).
func (s *Session) exhaust(reason string) {
	if s.markExhausted(reason) {
		s.publish()
	}
}

// publish snapshots the engine state into a fresh epoch. Every distance row
// is deep-copied (Engine.Distances copies) so the snapshot stays valid when
// the engine's dv.Store later recycles row arrays through its free list.
func (s *Session) publish() {
	start := time.Now()
	s.epoch++
	g := s.eng.Graph()
	snap := &Snapshot{
		Epoch:       s.epoch,
		Step:        s.eng.StepCount(),
		Converged:   s.eng.Converged(),
		Exhausted:   s.exhausted,
		Degraded:    s.degraded,
		Fault:       s.fault,
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		AppliedOps:  s.appliedOps,
		Stats:       s.eng.Stats(),
		dist:        s.eng.Distances(),
		live:        append([]graph.ID(nil), g.Vertices()...),
		width:       g.NumIDs(),
		minW:        centrality.MinEdgeWeight(g),
		taken:       start,
		next:        make(chan struct{}),
	}
	// The gauges describe the new epoch before any reader can see it: a
	// WaitFor woken by the swap must not read the previous epoch's values.
	if s.om != nil {
		s.om.published(snap, time.Since(start))
		s.om.limits(s.opts.StepBudget-(s.eng.StepCount()-s.baseStep),
			s.opts.Deadline-time.Since(s.started))
	}
	old := s.cur.Swap(snap)
	if old != nil {
		close(old.next)
	}
	s.dirty = false
	s.sincePublish = 0
	if s.spans != nil {
		s.spans.Span(obs.Span{
			Trace:     s.traceKey(),
			Component: "session",
			Name:      "session.publish",
			Start:     start,
			Dur:       time.Since(start),
			Detail: fmt.Sprintf("epoch %d at step %d (converged=%t exhausted=%t degraded=%t, %d vertices, %d edges)",
				snap.Epoch, snap.Step, snap.Converged, snap.Exhausted, snap.Degraded, snap.NumVertices, snap.NumEdges),
		})
	}
}
