package anytime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aacc/internal/core"
	"aacc/internal/obs"
	"aacc/internal/trace"
)

// This file is the session's high-throughput ingestion pipeline. Mutations
// of every kind enter one bounded queue as typed core.Mutation values —
// asynchronously via Enqueue, synchronously via ApplyBatch — and the
// orchestration goroutine drains everything queued at each step
// boundary into one coalesced batch apply followed by ONE epoch publication,
// instead of the historical publish-per-op schedule. The snapshot deep copy
// dominates per-mutation cost on write-heavy streams, so amortising it over
// the drained batch is where the throughput comes from.

// DefaultIngestQueue is the queue bound used when Options.IngestQueue is
// unset.
const DefaultIngestQueue = 256

// ErrQueueFull is returned by mutation entry points under the ErrorOnFull
// backpressure policy when the ingest queue has no free slot.
var ErrQueueFull = errors.New("anytime: ingest queue full")

// QueuePolicy selects the backpressure behaviour of a full ingest queue.
type QueuePolicy uint8

const (
	// BlockOnFull blocks the enqueuing goroutine until a slot frees (or
	// the session closes). The default.
	BlockOnFull QueuePolicy = iota
	// ErrorOnFull fails fast with ErrQueueFull, letting the producer shed
	// load or retry on its own schedule.
	ErrorOnFull
)

// ingestOp is one element of the bounded mutation queue.
type ingestOp struct {
	// mut is the mutation to apply; results (AssignedIDs, Repart) are
	// written back into it. nil marks a Flush barrier.
	mut *core.Mutation
	// done receives the per-op verdict after the covering epoch was
	// published; nil for fire-and-forget enqueues. Always buffered (cap 1)
	// so the orchestration goroutine never blocks replying.
	done chan error
}

// Enqueue submits a mutation asynchronously: it returns once the op is
// queued (or rejected by validation, the backpressure policy, or ErrClosed
// after Close), not once it is applied. Delivery of accepted ops is
// confirmed by a later Flush returning nil; ops still queued when the
// session closes are rejected, never half-applied. The mutation's payload is
// deep-copied, so the caller may reuse its slices.
func (s *Session) Enqueue(m core.Mutation) error {
	if err := m.Validate(); err != nil {
		return err
	}
	cp := m.Clone()
	return s.push(&ingestOp{mut: &cp}, s.opts.IngestPolicy)
}

// Flush blocks until every mutation enqueued before the call has been
// applied (or rejected) and the covering epoch published. It ignores the
// backpressure policy: a flush barrier always waits for its slot.
func (s *Session) Flush(ctx context.Context) error {
	op := &ingestOp{done: make(chan error, 1)}
	if err := s.push(op, BlockOnFull); err != nil {
		return err
	}
	select {
	case err := <-op.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		select {
		case err := <-op.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// ApplyBatch enqueues every op of the batch in order and blocks until all
// were applied, returning the first failure as a *core.BatchError (later ops
// still apply — each op fails independently, exactly as if applied alone).
// Results are written back into b's mutations. Ops are deep-copied at
// enqueue; concurrent mutators may interleave between them, but the batch's
// own order is preserved. Like Flush, it ignores ErrorOnFull: a synchronous
// batch waits for queue slots instead of shedding.
func (s *Session) ApplyBatch(b *core.Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	dones := make([]chan error, len(b.Ops))
	muts := make([]*core.Mutation, len(b.Ops))
	var firstErr error
	for i := range b.Ops {
		cp := b.Ops[i].Clone()
		muts[i] = &cp
		op := &ingestOp{mut: &cp, done: make(chan error, 1)}
		if err := s.push(op, BlockOnFull); err != nil {
			firstErr = &core.BatchError{Index: i, Err: err}
			break
		}
		dones[i] = op.done
	}
	for i, done := range dones {
		if done == nil {
			continue
		}
		err := s.await(done)
		b.Ops[i].AssignedIDs = muts[i].AssignedIDs
		b.Ops[i].Repart = muts[i].Repart
		if err != nil && firstErr == nil {
			firstErr = &core.BatchError{Index: i, Err: err}
		}
	}
	return firstErr
}

// await waits for an op's verdict, racing session shutdown the same way the
// command queue does: the loop may have replied just before exiting.
func (s *Session) await(done chan error) error {
	select {
	case err := <-done:
		return err
	case <-s.done:
		select {
		case err := <-done:
			return err
		default:
			return ErrClosed
		}
	}
}

// push enqueues one op under the given backpressure policy.
func (s *Session) push(op *ingestOp, policy QueuePolicy) error {
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	if policy == ErrorOnFull {
		select {
		case s.mq <- op:
		default:
			// Distinguish "full" from "closed while we looked".
			select {
			case <-s.done:
				return ErrClosed
			default:
			}
			return ErrQueueFull
		}
	} else {
		select {
		case s.mq <- op:
		case <-s.done:
			return ErrClosed
		}
	}
	if s.om != nil {
		s.om.ingestDepth.Add(1)
	}
	return nil
}

// ingest runs on the orchestration goroutine: it drains the queue behind the
// first op, coalesces the drained stream into apply units, applies them as
// one engine batch, publishes ONE covering epoch, and only then replies to
// the waiters — preserving ApplyBatch's "visible once the call returns"
// contract.
func (s *Session) ingest(first *ingestOp) {
	ops := make([]*ingestOp, 0, 1+len(s.mq))
	ops = append(ops, first)
	for n := len(s.mq); n > 0; n-- {
		ops = append(ops, <-s.mq)
	}
	if s.om != nil {
		s.om.ingestDepth.Add(-float64(len(ops)))
	}
	muts := make([]core.Mutation, 0, len(ops))
	orig := make([]*core.Mutation, 0, len(ops))
	for _, op := range ops {
		if op.mut != nil {
			muts = append(muts, *op.mut)
			orig = append(orig, op.mut)
		}
	}
	var errs []error
	if len(muts) > 0 {
		errs = s.applyIngest(muts, orig)
		s.appliedOps += len(muts)
		// One publication covers the whole batch and any budget trip it
		// caused: checkBudget only marks the transition.
		s.checkBudget()
		s.publish()
	}
	i := 0
	for _, op := range ops {
		var err error
		if op.mut != nil {
			err = errs[i]
			i++
		}
		if op.done != nil {
			op.done <- err
		}
	}
}

// applyIngest coalesces the drained mutations and applies them through the
// engine's batch entry point, returning one verdict per input op. The
// schedule semantics match the one-op-at-a-time oracle: each op is applied
// in order and fails independently — a failing op mutates nothing and later
// ops still apply.
func (s *Session) applyIngest(muts []core.Mutation, orig []*core.Mutation) []error {
	start := time.Now()
	units := core.Coalesce(muts)
	errs := make([]error, len(muts))
	i := 0
	for i < len(units) {
		sub := units[i:]
		batch := &core.Batch{Ops: make([]core.Mutation, len(sub))}
		for j := range sub {
			batch.Ops[j] = sub[j].Mut
		}
		err := s.eng.ApplyBatch(batch)
		if err == nil {
			for j := range sub {
				s.settleUnit(sub[j], &batch.Ops[j], errs, orig, nil)
			}
			break
		}
		var be *core.BatchError
		if !errors.As(err, &be) {
			// Engines report batch failures as *core.BatchError; anything
			// else is a transport-layer failure charged to the first
			// unapplied unit.
			be = &core.BatchError{Index: 0, Err: err}
		}
		for j := 0; j < be.Index && j < len(sub); j++ {
			s.settleUnit(sub[j], &batch.Ops[j], errs, orig, nil)
		}
		if be.Index >= len(sub) {
			break
		}
		u := sub[be.Index]
		if u.Count == 1 {
			s.settleUnit(u, &batch.Ops[be.Index], errs, orig, be.Err)
		} else {
			// A merged unit rejected its whole payload before mutating
			// (merged units are edge-add / set-weight batches, which
			// validate up front). Replay its constituents one at a time so
			// every original op gets its own verdict — exactly the oracle
			// schedule.
			for k := u.First; k < u.First+u.Count; k++ {
				errs[k] = s.applySingle(orig[k])
			}
		}
		i += be.Index + 1
	}
	if s.om != nil {
		s.om.mutations.Add(float64(len(muts)))
		s.om.applyLat.ObserveDuration(time.Since(start))
		s.om.ingestOps.Add(float64(len(muts)))
		s.om.ingestUnits.Add(float64(len(units)))
		s.om.batchSize.Observe(float64(len(muts)))
	}
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	detail := fmt.Sprintf("ingest %d ops as %d units", len(muts), len(units))
	if failed > 0 {
		detail += fmt.Sprintf(" (%d failed)", failed)
	}
	if len(units) < len(muts) || failed > 0 {
		// Flight-record only the interesting drains: the coalescer merged
		// or cancelled work, or ops failed (the engine has already recorded
		// the committed-prefix BatchError itself).
		s.rec.Record("session", "coalesce", s.traceKey(), detail)
	}
	if s.spans != nil {
		s.spans.Span(obs.Span{
			Trace:     s.traceKey(),
			Component: "session",
			Name:      "session.apply",
			Start:     start,
			Dur:       time.Since(start),
			Detail:    detail,
		})
	}
	if s.tracer != nil {
		s.tracer.Event(trace.KindMutation, detail)
	}
	return errs
}

// settleUnit records a unit's verdict for each constituent op and, for
// unmerged units, hands the apply results back to the original mutation.
func (s *Session) settleUnit(u core.ApplyUnit, applied *core.Mutation, errs []error, orig []*core.Mutation, err error) {
	if u.Count == 1 {
		orig[u.First].AssignedIDs = applied.AssignedIDs
		orig[u.First].Repart = applied.Repart
		errs[u.First] = err
		return
	}
	for k := u.First; k < u.First+u.Count; k++ {
		errs[k] = err
	}
}

// applySingle applies one mutation alone, unwrapping the batch error to the
// per-op cause.
func (s *Session) applySingle(m *core.Mutation) error {
	b := &core.Batch{Ops: []core.Mutation{*m}}
	err := s.eng.ApplyBatch(b)
	m.AssignedIDs = b.Ops[0].AssignedIDs
	m.Repart = b.Ops[0].Repart
	var be *core.BatchError
	if errors.As(err, &be) {
		return be.Err
	}
	return err
}
