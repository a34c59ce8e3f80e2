package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aacc/internal/anytime"
	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

func isConverged(sn *anytime.Snapshot) bool { return sn.Converged }

func batchOf(ms ...core.Mutation) *core.Batch { return &core.Batch{Ops: ms} }

// eagerEvery makes one round in four of the traced run's session rounds an
// eager deletion (rounds 1, 5, 9, ...). The untraced run deletes in barrier
// mode only: it could not report an eager round, which costs two barrier
// rounds' time.
const eagerEvery = 4

// runDynamic is dynamic-edges: on a session converged during set-up, rounds
// of "delete 8 random existing edges, wait for the exact answer, re-add
// them, wait again", timed through Session.ApplyBatch + WaitFor(Converged).
func runDynamic(e *env) error {
	ctx := context.Background()
	opts := anytime.Options{Engine: engineOptions(e.sz)}

	// Set-up, twice on different graphs for a median: generate, compute the
	// oracle rows, converge the base graph. The rounds use the last session.
	var setup, baseConv []float64
	var b baseSetup
	for i := 0; i < 2; i++ {
		if b.sess != nil {
			b.sess.Close()
		}
		var err error
		if b, err = convergeBase(ctx, e, e.sz.dynamicN, i, opts); err != nil {
			return err
		}
		setup = append(setup, b.setup.Seconds())
		baseConv = append(baseConv, b.converge.Seconds())
	}
	sess, mirror, base := b.sess, b.mirror, b.rows
	defer sess.Close()
	e.rep.setMedian("setup_s", setup)
	resetPeakRSS()             // the peak is that of the measured drive, not of set-up
	e.measureFrom = time.Now() // the measuring budget covers the rounds

	rng := rand.New(rand.NewSource(subSeed(e.seed, 100)))
	var apply, delExact, eagerExact, addExact []float64
	for round := 0; round < 2 || e.more(round); round++ {
		eager := e.trace && round%eagerEvery == 1
		edges := pickEdges(mirror, e.sz.delEdges, rng)
		del := core.EdgeDelete(pairsOf(edges)...)
		if eager {
			del = core.EdgeDeleteEager(pairsOf(edges)...)
		}

		t0 := time.Now()
		err := sess.ApplyBatch(batchOf(del))
		applied := time.Since(t0)
		sn, werr := sess.WaitFor(ctx, isConverged)
		exact := time.Since(t0)
		e.rep.op(err == nil && werr == nil)
		if err != nil || werr != nil {
			return fmt.Errorf("round %d delete: %v %v", round, err, werr)
		}
		for _, ed := range edges {
			mirror.RemoveEdge(ed.U, ed.V)
		}
		ok, why := rowsEqual(sn, sssp.APSP(mirror, 0))
		e.rep.check(ok, "round %d rows after delete differ from the oracle: %s", round, why)

		t0 = time.Now()
		err = sess.ApplyBatch(batchOf(core.EdgeAdd(edges...)))
		sn, werr = sess.WaitFor(ctx, isConverged)
		added := time.Since(t0)
		e.rep.op(err == nil && werr == nil)
		if err != nil || werr != nil {
			return fmt.Errorf("round %d re-add: %v %v", round, err, werr)
		}
		for _, ed := range edges {
			mirror.AddEdge(ed.U, ed.V, ed.W)
		}
		ok, why = rowsEqual(sn, base)
		e.rep.check(ok, "round %d rows after re-add differ from the pre-round rows: %s", round, why)

		if eager {
			eagerExact = append(eagerExact, exact.Seconds())
		} else {
			apply = append(apply, applied.Seconds()*1000)
			delExact = append(delExact, exact.Seconds())
		}
		addExact = append(addExact, added.Seconds())
		e.rep.logf("round %d eager=%t: delete applied %.3fs exact %.3fs, re-add exact %.3fs", round, eager, applied.Seconds(), exact.Seconds(), added.Seconds())
	}
	e.rep.setMedian("first_answer_ms", apply)
	e.rep.setMedian("exact_s", delExact)
	e.rep.set("peak_rss_mb", peakRSSMB())
	e.rep.setMedian("converge_s", baseConv)
	e.rep.setMedian("del_to_exact_s", delExact)
	e.rep.set("add_to_exact_s", mean(addExact))
	if !e.trace {
		return nil
	}
	sess.Close()
	e.rep.setMedian("del_eager_to_exact_s", eagerExact)
	return traceDynamic(e, median(delExact))
}

// traceDynamic repeats the rounds on a bare core.Engine (ApplyBatch, then
// Run), timing each call, and times a fresh engine on the graph after the
// barrier delete, which doubles as that round's oracle.
func traceDynamic(e *env, untraced float64) error {
	tr := e.tr
	root := tr.beginRep("rep[bare]")
	id := tr.begin("gen")
	g := baGraph(e.sz.dynamicN, e.sz.m, subSeed(e.seed, tracedStream))
	tr.end(id)
	id = tr.begin("oracle")
	base := sssp.APSP(g, 1)
	e.rep.set("oracle.seq_apsp_s", tr.end(id).Seconds())

	opts := engineOptions(e.sz)
	opts.Tracer = tr
	id = tr.begin("core.new")
	eng, err := core.New(g.Clone(), opts)
	tr.end(id)
	e.rep.op(err == nil)
	if err != nil {
		return fmt.Errorf("traced core.New: %w", err)
	}
	defer eng.Close()
	id = tr.begin("reconverge")
	_, err = eng.Run()
	tr.end(id)
	e.rep.op(err == nil)
	if err != nil {
		return fmt.Errorf("traced base Run: %w", err)
	}

	// timed applies b and reconverges, each call a span.
	timed := func(b *core.Batch) (apply, reconv time.Duration, steps int, err error) {
		id := tr.begin("apply")
		err = eng.ApplyBatch(b)
		apply = tr.end(id)
		if err != nil {
			return
		}
		id = tr.begin("reconverge")
		steps, err = eng.Run()
		reconv = tr.end(id)
		return
	}
	equal := func(want map[graph.ID][]int32) (bool, string) { return engineRowsEqual(eng, want) }

	rng := rand.New(rand.NewSource(subSeed(e.seed, tracedStream+1)))
	var addApply, addReconv []float64
	for round, eager := range []bool{false, true} {
		rid := tr.begin(fmt.Sprintf("round[%d]", round))
		edges := pickEdges(g, e.sz.delEdges, rng)
		del, prefix := core.EdgeDelete(pairsOf(edges)...), "core.del_"
		if eager {
			del, prefix = core.EdgeDeleteEager(pairsOf(edges)...), "core.del_eager_"
		}
		apply, reconv, steps, err := timed(batchOf(del))
		e.rep.op(err == nil)
		if err != nil {
			return fmt.Errorf("traced round %d delete: %w", round, err)
		}
		e.rep.set(prefix+"apply_s", apply.Seconds())
		e.rep.set(prefix+"reconverge_s", reconv.Seconds())
		e.rep.set(prefix+"steps", float64(steps))

		mutated := g.Clone()
		for _, ed := range edges {
			mutated.RemoveEdge(ed.U, ed.V)
		}
		if eager {
			ok, why := equal(sssp.APSP(mutated, 0))
			e.rep.check(ok, "traced round %d rows after eager delete differ from the oracle: %s", round, why)
		} else {
			// A fresh engine on the mutated graph: the restart the
			// incremental path competes with, which doubles as the oracle.
			id := tr.begin("restart")
			fresh, err := core.New(mutated, engineOptions(e.sz))
			if err == nil {
				_, err = fresh.Run()
			}
			restart := tr.end(id)
			e.rep.op(err == nil)
			if err != nil {
				return fmt.Errorf("traced round %d restart: %w", round, err)
			}
			ok, why := equal(fresh.Distances())
			fresh.Close()
			e.rep.check(ok, "traced round %d rows after delete differ from the restart engine: %s", round, why)
			e.rep.set("core.restart_s", restart.Seconds())
			e.rep.set("core.del_vs_restart", (apply+reconv).Seconds()/restart.Seconds())
		}

		apply, reconv, _, err = timed(batchOf(core.EdgeAdd(edges...)))
		e.rep.op(err == nil)
		if err != nil {
			return fmt.Errorf("traced round %d re-add: %w", round, err)
		}
		addApply = append(addApply, apply.Seconds())
		addReconv = append(addReconv, reconv.Seconds())
		ok, why := equal(base)
		e.rep.check(ok, "traced round %d rows after re-add differ from the pre-round rows: %s", round, why)
		tr.end(rid)
	}
	tr.end(root)
	e.rep.set("core.add_apply_s", mean(addApply))
	e.rep.set("core.add_reconverge_s", mean(addReconv))
	e.rep.set("core.del_vs_seq", untraced/e.rep.get("oracle.seq_apsp_s"))
	tr.printSelfTimes(e.rep.log, root)
	return nil
}
