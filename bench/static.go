package main

import (
	"context"
	"fmt"
	goruntime "runtime"
	"slices"
	"time"

	"aacc/internal/anytime"
	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/partition"
	"aacc/internal/runtime"
	"aacc/internal/sssp"
	"aacc/internal/transport"
)

// partitionSeed is program configuration, not input: it stays fixed so that
// --seed changes the graph and the mutations only.
const partitionSeed = 1

func engineOptions(sz sizes) core.Options {
	return core.Options{
		P:           sz.p,
		Seed:        partitionSeed,
		Partitioner: partition.Multilevel{Seed: partitionSeed},
		Workers:     goruntime.GOMAXPROCS(0),
	}
}

// wireFactory builds the tcp runtime as runtime.New does for runtime.WireTCP,
// with the benchmark's decorators around the transport and the runtime.
func wireFactory(rt **timedRuntime, tt **timedTransport, tr *tracer) func(int, logp.Params) (runtime.Runtime, error) {
	return func(p int, model logp.Params) (runtime.Runtime, error) {
		mesh, err := transport.NewTCPLoopback(p)
		if err != nil {
			return nil, err
		}
		*tt = &timedTransport{Transport: mesh, tr: tr}
		*rt = &timedRuntime{Runtime: runtime.NewWire(p, model, core.WireCodec{}, *tt), tr: tr}
		return *rt, nil
	}
}

func simFactory(rt **timedRuntime, tr *tracer) func(int, logp.Params) (runtime.Runtime, error) {
	return func(p int, model logp.Params) (runtime.Runtime, error) {
		*rt = &timedRuntime{Runtime: runtime.NewSim(p, model), tr: tr}
		return *rt, nil
	}
}

func harmonicTop(s centrality.Scores, k int) []graph.ID {
	return centrality.TopK(s, s.Harmonic, k)
}

// rowsEqual reports whether the snapshot holds exactly the oracle's rows.
func rowsEqual(sn *anytime.Snapshot, want map[graph.ID][]int32) (bool, string) {
	if len(sn.Vertices()) != len(want) {
		return false, fmt.Sprintf("%d live vertices, oracle has %d", len(sn.Vertices()), len(want))
	}
	for _, v := range sn.Vertices() {
		if ok, why := rowEqual(v, sn.Row(v), want[v]); !ok {
			return false, why
		}
	}
	return true, ""
}

// engineRowsEqual is rowsEqual for a bare engine.
func engineRowsEqual(eng *core.Engine, want map[graph.ID][]int32) (bool, string) {
	for v, row := range eng.Distances() {
		if ok, why := rowEqual(v, row, want[v]); !ok {
			return false, why
		}
	}
	return true, ""
}

func rowEqual(v graph.ID, got, want []int32) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("row %d has %d entries, oracle %d", v, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return false, fmt.Sprintf("d(%d,%d) = %d, oracle %d", v, i, got[i], want[i])
		}
	}
	return true, ""
}

// converged is one Session driven from a graph in hand to its fixpoint.
type converged struct {
	sess       *anytime.Session
	final      *anytime.Snapshot
	firstEpoch time.Duration // anytime.New returned: epoch 1 is readable
	top10      time.Duration // first epoch from which the top-10 stays final
	converge   time.Duration
	epochs     int
}

// sessionConverge starts a session over g and follows it epoch by epoch to
// convergence, recording (time, harmonic top-10) at every epoch it sees; the
// top-10 time is found post hoc from that record.
func sessionConverge(ctx context.Context, g *graph.Graph, opts anytime.Options) (converged, error) {
	type epochRec struct {
		at  time.Duration
		top []graph.ID
	}
	start := time.Now()
	sess, err := anytime.New(ctx, g, opts)
	if err != nil {
		return converged{}, err
	}
	c := converged{sess: sess, firstEpoch: time.Since(start)}
	var recs []epochRec
	last := 0
	for {
		sn, err := sess.WaitFor(ctx, func(sn *anytime.Snapshot) bool { return sn.Epoch > last })
		if err != nil {
			sess.Close()
			return converged{}, err
		}
		at := time.Since(start)
		last = sn.Epoch
		recs = append(recs, epochRec{at, harmonicTop(sn.Scores(), 10)})
		if sn.Converged || sn.Exhausted {
			c.final, c.converge, c.epochs = sn, at, sn.Epoch
			break
		}
	}
	k := len(recs) - 1
	for k > 0 && slices.Equal(recs[k-1].top, recs[k].top) {
		k--
	}
	c.top10 = recs[k].at
	return c, nil
}

// baseSetup is one set-up of the workloads that start from a converged session.
type baseSetup struct {
	converged
	mirror *graph.Graph         // the benchmark's own copy of the session's graph
	rows   map[graph.ID][]int32 // the oracle's rows of the starting graph
	setup  time.Duration
}

// convergeBase is that set-up: generate a graph of n vertices from the
// stream's sub-seed, compute the oracle's rows, converge a session on a copy
// and check its rows against the oracle.
func convergeBase(ctx context.Context, e *env, n, stream int, opts anytime.Options) (baseSetup, error) {
	t0 := time.Now()
	b := baseSetup{mirror: baGraph(n, e.sz.m, subSeed(e.seed, stream))}
	b.rows = sssp.APSP(b.mirror, 0)
	c, err := sessionConverge(ctx, b.mirror.Clone(), opts)
	b.converged, b.setup = c, time.Since(t0)
	e.rep.op(err == nil)
	if err != nil {
		return b, fmt.Errorf("set-up on stream %d: %w", stream, err)
	}
	ok, why := rowsEqual(c.final, b.rows)
	e.rep.check(ok, "set-up on stream %d: base rows differ from sssp.APSP: %s", stream, why)
	return b, nil
}

// runStatic is static-sim and static-tcp: the same inputs and drive, only
// the runtime differs.
func runStatic(e *env, tcp bool) error {
	ctx := context.Background()
	opts := anytime.Options{Engine: engineOptions(e.sz)}
	if tcp {
		opts.Engine.Runtime = runtime.WireTCP
	}
	var setup, first, top10, conv, rss []float64
	for rep := 0; e.more(rep); rep++ {
		resetPeakRSS()
		t0 := time.Now()
		g := baGraph(e.sz.staticN, e.sz.m, subSeed(e.seed, rep))
		want := sssp.APSP(g, 0)
		setup = append(setup, time.Since(t0).Seconds())

		// Epoch 1 costs a fortieth of a convergence, so it is sampled three
		// times per rep: twice on sessions that are closed at once.
		for i := 0; i < 2; i++ {
			paused := opts
			paused.StartPaused = true
			t0 := time.Now()
			sess, err := anytime.New(ctx, g.Clone(), paused)
			first = append(first, time.Since(t0).Seconds()*1000)
			e.rep.op(err == nil)
			if err != nil {
				return fmt.Errorf("rep %d: %w", rep, err)
			}
			sess.Close()
		}
		c, err := sessionConverge(ctx, g, opts)
		e.rep.op(err == nil)
		if err != nil {
			return fmt.Errorf("rep %d: %w", rep, err)
		}
		first = append(first, c.firstEpoch.Seconds()*1000)
		top10 = append(top10, c.top10.Seconds())
		conv = append(conv, c.converge.Seconds())
		ok, why := rowsEqual(c.final, want)
		e.rep.check(ok && c.final.Converged, "rep %d converged rows differ from sssp.APSP: %s", rep, why)
		e.rep.logf("rep %d: epoch1 %.1fms  top10 exact %.3fs  converged %.3fs  (%d epochs, %d steps)",
			rep, c.firstEpoch.Seconds()*1000, c.top10.Seconds(), c.converge.Seconds(), c.epochs, c.final.Step)
		if e.trace && rep == 0 {
			topkProbe(e, c)
		}
		c.sess.Close()
		rss = append(rss, peakRSSMB())
	}
	e.rep.setMedian("peak_rss_mb", rss)
	e.rep.setMedian("setup_s", setup)
	e.rep.setMedian("first_answer_ms", first)
	e.rep.setMedian("exact_s", conv)
	e.rep.setMedian("converge_s", conv)
	e.rep.setMedian("top10_exact_s", top10)
	if !e.trace {
		return nil
	}
	return traceStatic(e, tcp, median(conv))
}

// topkProbe times in-process top-k on a converged session: the first call
// builds the bound index, the rest take the warm path.
func topkProbe(e *env, c converged) {
	t0 := time.Now()
	res := c.sess.TopK(10, true)
	e.rep.set("centrality.topk_first_call_ms", time.Since(t0).Seconds()*1000)
	e.rep.check(res.Resolved == res.K && slices.Equal(topIDs(res), harmonicTop(c.final.Scores(), 10)),
		"Session.TopK on the converged session differs from the full scan")
	const warmCalls = 200
	t0 = time.Now()
	for i := 0; i < warmCalls; i++ {
		c.sess.TopK(10, true)
	}
	e.rep.set("centrality.topk_warm_call_us", time.Since(t0).Seconds()*1e6/warmCalls)
}

func topIDs(res centrality.TopKResult) []graph.ID {
	ids := make([]graph.ID, len(res.Entries))
	for i, en := range res.Entries {
		ids[i] = en.V
	}
	return ids
}

// traceStatic is the traced repeat: one rep on a bare core.Engine stepped by
// the benchmark, so that every step is a span with the engine's phase spans
// and the runtime and transport decorators inside it, then one Session rep
// with a metrics registry and the span sink on, which gives the session's
// publish cost and the tracing overhead on the end-to-end figure.
func traceStatic(e *env, tcp bool, untraced float64) error {
	tr := e.tr
	root := tr.beginRep("rep[bare]")
	id := tr.begin("gen")
	g := baGraph(e.sz.staticN, e.sz.m, subSeed(e.seed, tracedStream))
	tr.end(id)

	id = tr.begin("oracle")
	want := sssp.APSP(g, 1)
	e.rep.set("oracle.seq_apsp_s", tr.end(id).Seconds())

	opts := engineOptions(e.sz)
	id = tr.begin("partition.dd")
	assign := opts.Partitioner.Partition(g, opts.P)
	dd := tr.end(id)
	e.rep.set("partition.dd_s", dd.Seconds())
	e.rep.set("partition.cut_edges", float64(assign.CutEdges(g)))
	e.rep.set("partition.imbalance", assign.Imbalance())

	var rt *timedRuntime
	var tt *timedTransport
	opts.Tracer = tr
	opts.RuntimeFactory = simFactory(&rt, tr)
	if tcp {
		opts.RuntimeFactory = wireFactory(&rt, &tt, tr)
	}
	id = tr.begin("core.new")
	eng, err := core.New(g.Clone(), opts)
	newT := tr.end(id)
	e.rep.op(err == nil)
	if err != nil {
		return fmt.Errorf("traced core.New: %w", err)
	}
	defer eng.Close()
	e.rep.set("core.new_s", newT.Seconds())
	e.rep.set("core.ia_s", (newT - dd).Seconds())

	var steps, rowsSent, rowsChanged, messages int
	var stepSum, stepMax time.Duration
	for !eng.Converged() {
		id = tr.begin(fmt.Sprintf("step[%d]", steps))
		sr, err := eng.Step()
		d := tr.end(id)
		e.rep.op(err == nil)
		if err != nil {
			return fmt.Errorf("traced step %d: %w", steps, err)
		}
		steps++
		stepSum += d
		stepMax = max(stepMax, d)
		rowsSent += sr.RowsSent
		rowsChanged += sr.RowsChanged
		messages += sr.MessagesSent
	}
	id = tr.begin("scores")
	eng.Scores()
	e.rep.set("core.scores_s", tr.end(id).Seconds())

	id = tr.begin("verify")
	ok, why := engineRowsEqual(eng, want)
	tr.end(id)
	e.rep.check(ok, "traced engine rows differ from sssp.APSP: %s", why)
	tr.end(root)

	collect, exchange := tr.total("engine.collect", root), tr.total("engine.exchange", root)
	install, strategies := tr.total("engine.install_relax", root), tr.total("engine.strategies", root)
	e.rep.set("core.steps", float64(steps))
	e.rep.set("core.step_s_sum", stepSum.Seconds())
	e.rep.set("core.step_s_max", stepMax.Seconds())
	e.rep.set("core.collect_s", collect.Seconds())
	e.rep.set("core.exchange_s", exchange.Seconds())
	e.rep.set("core.install_relax_s", install.Seconds())
	e.rep.set("core.strategies_s", strategies.Seconds())
	e.rep.set("core.unattributed_s", (stepSum - collect - exchange - install - strategies).Seconds())
	e.rep.set("core.rows_sent", float64(rowsSent))
	e.rep.set("core.rows_changed", float64(rowsChanged))
	e.rep.set("core.messages", float64(messages))
	e.rep.set("core.bytes_sent", float64(eng.Stats().BytesSent))
	e.rep.set("runtime.exchange_s", rt.exchange.Seconds())
	e.rep.set("runtime.parallel_s", rt.parallel.Seconds())
	e.rep.set("runtime.exchange_rounds", float64(rt.rounds))
	if tcp {
		e.rep.set("transport.roundtrip_s", tt.roundtrip.Seconds())
		e.rep.set("transport.frames", float64(tt.frames))
		e.rep.set("transport.bytes", float64(tt.bytes))
		e.rep.set("core.wirecodec_s", (rt.exchange - tt.roundtrip).Seconds())
	}
	e.rep.set("core.slowdown_vs_seq", untraced/e.rep.get("oracle.seq_apsp_s"))
	e.rep.set("anytime.overhead_s", untraced-(newT+stepSum).Seconds())
	tr.printSelfTimes(e.rep.log, root)

	// Session rep with the registry and the span sink on.
	root = tr.beginRep("rep[session]")
	reg := obs.NewRegistry()
	sopts := anytime.Options{Engine: engineOptions(e.sz)}
	sopts.Engine.Tracer = tr
	sopts.Engine.Obs = reg
	if tcp {
		sopts.Engine.Runtime = runtime.WireTCP
	}
	c, err := sessionConverge(context.Background(), g, sopts)
	tr.end(root)
	e.rep.op(err == nil)
	if err != nil {
		return fmt.Errorf("traced session: %w", err)
	}
	defer c.sess.Close()
	ok, why = rowsEqual(c.final, want)
	e.rep.check(ok, "traced session rows differ from sssp.APSP: %s", why)
	prom, err := scrapeRegistry(reg)
	if err != nil {
		return err
	}
	e.rep.set("anytime.first_epoch_s", c.firstEpoch.Seconds())
	e.rep.set("anytime.epochs", float64(c.epochs))
	e.rep.set("anytime.publish_s_sum", prom["aacc_session_publish_seconds_sum"])
	e.rep.set("trace.overhead_share", (c.converge.Seconds()-untraced)/untraced)
	return nil
}
