package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aacc/internal/anytime"
	"aacc/internal/graph"
	"aacc/internal/obs"
	"aacc/internal/sssp"
)

// openLoop is the paced phase of ingest-churn on a converged session: ops
// mutations at rate/s through Enqueue, each timed from its due time to the
// first published snapshot whose AppliedOps counts it. It returns the
// latencies in ms and the worst lateness of the generator.
func openLoop(ctx context.Context, sess *anytime.Session, ch *churn, mirror *graph.Graph, rate, ops int, rep *report) (visible []float64, lateMax float64, err error) {
	first := sess.Snapshot()
	due := make([]time.Time, ops)
	visible = make([]float64, ops)
	var wg sync.WaitGroup
	var watchErr error
	wg.Add(1)
	go func() { // the watcher: stamps ops as the epochs that cover them appear
		defer wg.Done()
		seen, last := 0, first.Epoch
		for seen < ops {
			sn, err := sess.WaitFor(ctx, func(sn *anytime.Snapshot) bool { return sn.Epoch > last })
			if err != nil {
				watchErr = err
				return
			}
			now := time.Now()
			last = sn.Epoch
			for ; seen < ops && sn.AppliedOps-first.AppliedOps > seen; seen++ {
				visible[seen] = now.Sub(due[seen]).Seconds() * 1000
			}
		}
	}()
	start := time.Now()
	interval := time.Second / time.Duration(rate)
	for i := range due {
		// due[i] is written before op i is enqueued, and the watcher reads it
		// only after a snapshot that counts op i: ordered by the queue.
		due[i] = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due[i]))
		m := ch.next(mirror)
		lateMax = max(lateMax, time.Since(due[i]).Seconds()*1000)
		err := sess.Enqueue(m)
		rep.op(err == nil)
		if err != nil {
			return nil, 0, fmt.Errorf("open-loop enqueue %d: %w", i, err)
		}
	}
	wg.Wait()
	if watchErr != nil {
		return nil, 0, fmt.Errorf("open-loop watcher: %w", watchErr)
	}
	_, err = sess.WaitFor(ctx, isConverged)
	return visible, lateMax, err
}

// burstResult is the outcome of the flat-out phase.
type burstResult struct {
	total        time.Duration // first Enqueue -> converged
	enqueueBlock time.Duration
	flushToExact time.Duration
}

// burst is the closed-loop phase: ops mutations flat out through Enqueue
// (block policy), then Flush, then wait for convergence.
func burst(ctx context.Context, sess *anytime.Session, ch *churn, mirror *graph.Graph, ops int, rep *report) (burstResult, error) {
	var out burstResult
	start := time.Now()
	for i := 0; i < ops; i++ {
		m := ch.next(mirror)
		t0 := time.Now()
		err := sess.Enqueue(m)
		out.enqueueBlock += time.Since(t0)
		rep.op(err == nil)
		if err != nil {
			return out, fmt.Errorf("burst enqueue %d: %w", i, err)
		}
	}
	if err := sess.Flush(ctx); err != nil {
		return out, fmt.Errorf("flush: %w", err)
	}
	flushed := time.Now()
	if _, err := sess.WaitFor(ctx, isConverged); err != nil {
		return out, err
	}
	out.total = time.Since(start)
	out.flushToExact = time.Since(flushed)
	return out, nil
}

// ingestResult is one whole drive of ingest-churn.
type ingestResult struct {
	setup, baseConv []float64
	visible         []float64
	lateMax         float64
	burst           burstResult
	ops, epochs     int // applied and published over both phases, all sessions
}

// driveIngest is ingest-churn's drive. Three sessions, each set up on its
// own graph (generate, oracle, converge) and then fed a third of the open
// loop, so that the latency median pools three graphs; the last session then
// takes the burst. Every session's final rows are checked against the oracle
// on the graph the benchmark mirrored op by op. stream offsets the sub-seeds
// and tr, when set, wraps the phases in spans.
func driveIngest(ctx context.Context, e *env, opts anytime.Options, stream, openOps, burstOps int, tr *tracer) (ingestResult, error) {
	const sessions = 3
	var out ingestResult
	for i := 0; i < sessions; i++ {
		id := tr.begin("anytime.converge")
		b, err := convergeBase(ctx, e, e.sz.ingestN, stream+i, opts)
		tr.end(id)
		if err != nil {
			return out, err
		}
		c, mirror := b.converged, b.mirror
		defer c.sess.Close()
		out.setup = append(out.setup, b.setup.Seconds())
		out.baseConv = append(out.baseConv, c.converge.Seconds())
		if i == sessions-1 {
			resetPeakRSS() // the peak is that of the measured drive, not of set-up
		}

		ch := newChurn(mirror, subSeed(e.seed, stream+100+i))
		id = tr.begin("anytime.ingest")
		visible, late, err := openLoop(ctx, c.sess, ch, mirror, e.sz.ingestRate, openOps/sessions, e.rep)
		if err == nil && i == sessions-1 {
			out.burst, err = burst(ctx, c.sess, ch, mirror, burstOps, e.rep)
		}
		tr.end(id)
		if err != nil {
			return out, err
		}
		out.visible = append(out.visible, visible...)
		out.lateMax = max(out.lateMax, late)
		id = tr.begin("oracle")
		want := sssp.APSP(mirror, 0)
		tr.end(id)
		sn := c.sess.Snapshot()
		ok, why := rowsEqual(sn, want)
		e.rep.check(ok, "session %d final rows differ from the oracle on the mirrored graph: %s", i, why)
		out.ops += sn.AppliedOps - c.final.AppliedOps
		out.epochs += sn.Epoch - c.final.Epoch
		c.sess.Close()
	}
	want := openOps/sessions*sessions + burstOps
	e.rep.check(out.ops == want, "the sessions applied %d ops, %d were enqueued", out.ops, want)
	return out, nil
}

// runIngest is ingest-churn: a mixed mutation stream through the session's
// asynchronous queue, first paced (latency), then flat out (throughput).
func runIngest(e *env) error {
	ctx := context.Background()
	opts := anytime.Options{Engine: engineOptions(e.sz)}

	// --seconds splits 6:4 between the open loop and (at today's ~220 ops/s)
	// the burst; the traced run halves both and repeats them traced.
	seconds := e.seconds.Seconds()
	if e.trace {
		seconds /= 2
	}
	openOps := max(int(0.6*seconds*float64(e.sz.ingestRate)), 30)
	burstOps := max(int(seconds*float64(e.sz.burstRate)), 20)
	res, err := driveIngest(ctx, e, opts, 0, openOps, burstOps, nil)
	if err != nil {
		return err
	}
	e.rep.logf("open loop: %d ops at %d/s on three sessions, generator late by at most %.1fms; burst: %d ops in %.3fs",
		len(res.visible), e.sz.ingestRate, res.lateMax, burstOps, res.burst.total.Seconds())
	if label, v, ok := tail(res.visible); ok {
		e.rep.logf("visible latency: median %.2fms, %s %.2fms, %d samples", median(res.visible), label, v, len(res.visible))
	}
	e.rep.setMedian("setup_s", res.setup)
	e.rep.setMedian("first_answer_ms", res.visible)
	e.rep.set("exact_s", res.burst.total.Seconds())
	e.rep.set("peak_rss_mb", peakRSSMB())
	e.rep.setMedian("converge_s", res.baseConv)
	e.rep.setMedian("visible_ms_p50", res.visible)
	e.rep.set("ingest_ops_per_s", float64(burstOps)/res.burst.total.Seconds())
	if !e.trace {
		return nil
	}
	e.rep.set("anytime.visible_ms_p95", quantile(res.visible, 0.95))
	e.rep.set("anytime.enqueue_blocked_s", res.burst.enqueueBlock.Seconds())
	e.rep.set("anytime.generator_late_ms_max", res.lateMax)
	e.rep.set("anytime.ops_per_epoch", float64(res.ops)/float64(max(res.epochs, 1)))
	e.rep.set("anytime.flush_to_exact_s", res.burst.flushToExact.Seconds())

	// Traced repeat: the same drive on fresh sessions with a registry and
	// the span sink on.
	tr := e.tr
	root := tr.beginRep("rep[session]")
	reg := obs.NewRegistry()
	opts.Engine.Tracer = tr
	opts.Engine.Obs = reg
	traced, err := driveIngest(ctx, e, opts, tracedStream, openOps, burstOps, tr)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("traced drive: %w", err)
	}
	prom, err := scrapeRegistry(reg)
	if err != nil {
		return err
	}
	e.rep.set("anytime.coalesce_ratio", prom["aacc_session_ingest_ops_total"]/max(prom["aacc_session_ingest_units_total"], 1))
	e.rep.set("trace.overhead_share", (traced.burst.total.Seconds()-res.burst.total.Seconds())/res.burst.total.Seconds())
	tr.printSelfTimes(e.rep.log, root)
	return nil
}
