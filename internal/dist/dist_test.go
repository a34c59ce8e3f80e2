package dist

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"aacc/internal/anytime"
	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
	"aacc/internal/partition"
	"aacc/internal/transport"
)

const (
	testP    = 4
	testSeed = int64(7)
)

func testGraph(n int) *graph.Graph {
	return gen.BarabasiAlbert(n, 2, testSeed, gen.Config{MaxWeight: 4})
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// startWorker launches RunWorker on a fresh clone of base in a goroutine and
// returns its mesh address and exit channel. addr == "" binds a new port;
// a restart passes the dead worker's address to reclaim its identity.
func startWorker(t *testing.T, ctx context.Context, coordAddr, addr string, base *graph.Graph) (string, chan error) {
	t.Helper()
	return startWorkerObs(t, ctx, coordAddr, addr, base, nil)
}

// startWorkerObs is startWorker with a worker-side metrics registry, so the
// piggybacked snapshot carries real engine/mesh counters.
func startWorkerObs(t *testing.T, ctx context.Context, coordAddr, addr string, base *graph.Graph, reg *obs.Registry) (string, chan error) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("binding mesh listener %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{
			Coordinator:  coordAddr,
			MeshListener: ln,
			Graph:        base.Clone(),
			P:            testP,
			Seed:         testSeed,
			Partitioner:  partition.Multilevel{Seed: testSeed},
			// The pool is local-only parallelism; running every cluster test
			// with it on proves the sharded paths stay bit-identical to the
			// sequential single-process oracle across real sockets.
			PoolWorkers: 2,
			Transport:   transport.Config{RoundTimeout: 2 * time.Second},
			DialTimeout: 15 * time.Second,
			Obs:         reg,
		})
	}()
	return ln.Addr().String(), done
}

func newTestCoordinator(t *testing.T, ln net.Listener, g *graph.Graph, workers int) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(ln, g, Config{
		Workers:     workers,
		P:           testP,
		Seed:        testSeed,
		Partitioner: "multilevel",
		Transport:   transport.Config{RoundTimeout: 2 * time.Second},
		JoinTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return coord
}

func oracle(t *testing.T, g *graph.Graph) *core.Engine {
	t.Helper()
	eng, err := core.New(g, core.Options{
		P:           testP,
		Seed:        testSeed,
		Partitioner: partition.Multilevel{Seed: testSeed},
	})
	if err != nil {
		t.Fatalf("oracle engine: %v", err)
	}
	return eng
}

func converge(t *testing.T, name string, step func() error, done func() bool) {
	t.Helper()
	for i := 0; !done(); i++ {
		if i > 500 {
			t.Fatalf("%s: no convergence after %d steps", name, i)
		}
		if err := step(); err != nil {
			t.Fatalf("%s: step %d: %v", name, i, err)
		}
	}
}

func compareDistances(t *testing.T, when string, got, want map[graph.ID][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cluster has %d rows, oracle has %d", when, len(got), len(want))
	}
	for id, wrow := range want {
		grow, ok := got[id]
		if !ok {
			t.Fatalf("%s: cluster is missing row %d", when, id)
		}
		if len(grow) != len(wrow) {
			t.Fatalf("%s: row %d: cluster width %d, oracle width %d", when, id, len(grow), len(wrow))
		}
		for j := range wrow {
			if grow[j] != wrow[j] {
				t.Fatalf("%s: d(%d,%d): cluster %d, oracle %d", when, id, j, grow[j], wrow[j])
			}
		}
	}
}

// TestClusterMatchesSingleProcess converges a 1-coordinator + 2-worker
// cluster over real sockets and requires its distances to equal a
// single-process engine's at the fixpoint — before and after a batch of
// dynamic updates that exercises every mutation kind, including a deletion
// on the converged cluster (the exact test, with its endpoint-row
// all-gather) and deletions mid-analysis (the row wipe).
func TestClusterMatchesSingleProcess(t *testing.T) {
	base := testGraph(120)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()
	_, done0 := startWorker(t, ctx, coordAddr, "", base)
	_, done1 := startWorker(t, ctx, coordAddr, "", base)

	coord := newTestCoordinator(t, ln, base.Clone(), 2)
	defer coord.Close()

	ora := oracle(t, base.Clone())
	defer ora.Close()

	step := func() error { _, err := coord.Step(); return err }
	converge(t, "cluster", step, coord.Converged)
	converge(t, "oracle", func() error { _, err := ora.Step(); return err }, ora.Converged)
	compareDistances(t, "initial fixpoint", coord.Distances(), ora.Distances())

	// Dynamic updates, one of each kind, applied identically to both sides.
	edges := base.Edges()
	adds := []graph.EdgeTriple{{U: 0, V: graph.ID(base.NumIDs() - 1), W: 1}}
	dels := [][2]graph.ID{{edges[0].U, edges[0].V}}
	more := [][2]graph.ID{{edges[1].U, edges[1].V}}
	for _, m := range []core.Mutation{
		core.EdgeDelete(dels...),
		core.EdgeAdd(adds...),
		core.EdgeDelete(more...),
		core.WeightSet(edges[2].U, edges[2].V, edges[2].W+3),
	} {
		if err := coord.ApplyBatch(&core.Batch{Ops: []core.Mutation{m}}); err != nil {
			t.Fatalf("cluster %s: %v", m.Kind, err)
		}
		if err := ora.ApplyBatch(&core.Batch{Ops: []core.Mutation{m}}); err != nil {
			t.Fatalf("oracle %s: %v", m.Kind, err)
		}
	}

	// A multi-edge weight set naming one missing edge is rejected intact on
	// both sides: same failing index, the op before it committed, and the
	// existing edge of the failing op keeps its weight.
	missing := [2]graph.ID{1, graph.ID(base.NumIDs() - 2)}
	if ora.Graph().HasEdge(missing[0], missing[1]) {
		t.Fatalf("test graph unexpectedly has edge %v", missing)
	}
	// A decrease, so applying it alone deletes nothing.
	keep := edges[3]
	for _, ed := range edges[3:] {
		if ed.W > 1 {
			keep = ed
			break
		}
	}
	mixed := func() *core.Batch {
		return &core.Batch{Ops: []core.Mutation{
			core.EdgeAdd(graph.EdgeTriple{U: 2, V: graph.ID(base.NumIDs() - 3), W: 1}),
			{Kind: core.MutSetWeight, Edges: []graph.EdgeTriple{
				{U: keep.U, V: keep.V, W: keep.W - 1},
				{U: missing[0], V: missing[1], W: 2},
			}},
		}}
	}
	for _, side := range []struct {
		name  string
		apply func(*core.Batch) error
		g     graph.View
	}{
		{"cluster", coord.ApplyBatch, coord.Graph()},
		{"oracle", ora.ApplyBatch, ora.Graph()},
	} {
		var be *core.BatchError
		if err := side.apply(mixed()); !errors.As(err, &be) || be.Index != 1 {
			t.Fatalf("%s mixed weight set: %v, want a BatchError at op 1", side.name, err)
		}
		if !side.g.HasEdge(2, graph.ID(base.NumIDs()-3)) {
			t.Fatalf("%s: the op before the failing weight set did not commit", side.name)
		}
		if w, _ := side.g.Weight(keep.U, keep.V); w != keep.W {
			t.Fatalf("%s: failing weight set re-weighted {%d,%d} to %d (was %d)", side.name, keep.U, keep.V, w, keep.W)
		}
	}
	if got, want := coord.Graph().NumEdges(), ora.Graph().NumEdges(); got != want {
		t.Fatalf("after updates: mirror has %d edges, oracle %d", got, want)
	}
	converge(t, "cluster reconverge", step, coord.Converged)
	converge(t, "oracle reconverge", func() error { _, err := ora.Step(); return err }, ora.Converged)
	compareDistances(t, "post-update fixpoint", coord.Distances(), ora.Distances())

	if st := coord.Stats(); st.BytesSent == 0 {
		t.Fatalf("cluster stats report no bytes sent: %+v", st)
	}

	if err := coord.Close(); err != nil {
		t.Fatalf("coordinator close: %v", err)
	}
	for i, done := range []chan error{done0, done1} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after shutdown", i)
		}
	}
}

// TestWorkerCrashRejoin kills one of two worker processes under an anytime
// session, requires the session to degrade (the fault crosses the process
// boundary as core.ErrExchange), restarts the worker on the same mesh
// address, and requires the session to recover and converge to the oracle's
// distances.
func TestWorkerCrashRejoin(t *testing.T) {
	base := testGraph(80)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()
	_, done0 := startWorker(t, ctx, coordAddr, "", base)
	wctx, wcancel := context.WithCancel(ctx)
	meshAddr, done1 := startWorker(t, wctx, coordAddr, "", base)

	coord := newTestCoordinator(t, ln, base.Clone(), 2)

	// Kill worker 1 before the session steps: its first exchange must fail
	// across the real process boundary.
	wcancel()
	select {
	case <-done1:
	case <-time.After(10 * time.Second):
		t.Fatal("killed worker did not exit")
	}

	sess, err := anytime.NewWith(ctx, coord, anytime.Options{})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer sess.Close()

	wait, waitCancel := context.WithTimeout(ctx, 60*time.Second)
	defer waitCancel()
	sn, err := sess.WaitFor(wait, func(sn *anytime.Snapshot) bool { return sn.Degraded })
	if err != nil {
		t.Fatalf("waiting for degraded: %v", err)
	}
	if !strings.Contains(sn.Fault, "workers down") {
		t.Fatalf("degraded fault %q does not mention the dead worker", sn.Fault)
	}

	// Restart the worker on its old mesh address; the coordinator must
	// readmit it and the session must clear the degradation and converge.
	_, done1 = startWorker(t, ctx, coordAddr, meshAddr, base)
	sn, err = sess.WaitFor(wait, func(sn *anytime.Snapshot) bool { return sn.Converged && !sn.Degraded })
	if err != nil {
		t.Fatalf("waiting for recovery: %v", err)
	}

	ora := oracle(t, base.Clone())
	defer ora.Close()
	converge(t, "oracle", func() error { _, err := ora.Step(); return err }, ora.Converged)
	want := ora.Distances()
	for id, wrow := range want {
		for j := range wrow {
			if got := sn.Distance(id, graph.ID(j)); got != wrow[j] {
				t.Fatalf("recovered d(%d,%d): session %d, oracle %d", id, j, got, wrow[j])
			}
		}
	}

	infos := coord.Workers()
	for _, wi := range infos {
		if !wi.Alive {
			t.Fatalf("worker %d (%s) still marked dead after rejoin: %s", wi.Index, wi.Addr, wi.LastErr)
		}
	}

	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	for i, done := range []chan error{done0, done1} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after close", i)
		}
	}
}

// spanLog is a thread-safe obs.SpanSink for assertions.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (s *spanLog) Span(sp obs.Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

func (s *spanLog) all() []obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Span(nil), s.spans...)
}

// TestClusterObservability pins the tentpole's cluster surface end to end:
// one coordinator /metrics scrape exposes per-worker-labeled
// aacc_cluster_worker_* families fed by the snapshots workers piggyback on
// their replies, the coordinator's span sink correlates coord.step with the
// relayed worker.N spans under one trace key, and a kill → notice → rejoin →
// resync incident lands in the flight recorder with its sequence numbers.
func TestClusterObservability(t *testing.T) {
	base := testGraph(80)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()
	_, done0 := startWorkerObs(t, ctx, coordAddr, "", base, obs.NewRegistry())
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	meshAddr, done1 := startWorkerObs(t, wctx, coordAddr, "", base, obs.NewRegistry())

	reg := obs.NewRegistry()
	spans := &spanLog{}
	coord, err := NewCoordinator(ln, base.Clone(), Config{
		Workers:     2,
		P:           testP,
		Seed:        testSeed,
		Partitioner: "multilevel",
		Transport:   transport.Config{RoundTimeout: 2 * time.Second},
		JoinTimeout: 30 * time.Second,
		Obs:         reg,
		Spans:       spans,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	converge(t, "cluster", func() error { _, err := coord.Step(); return err }, coord.Converged)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`aacc_cluster_worker_up{worker="0"} 1`,
		`aacc_cluster_worker_up{worker="1"} 1`,
		`aacc_cluster_worker_resident_procs{worker="0"} 2`,
		`aacc_cluster_worker_steps{worker="0"}`,
		`aacc_cluster_worker_metrics_age_seconds{worker="1"}`,
		`aacc_cluster_convergence_progress 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("coordinator exposition missing %q", want)
		}
	}
	// Both workers run with registries, so their snapshots carry real mesh
	// counters and the re-exported gauges must be nonzero.
	for _, w := range []string{"0", "1"} {
		if v := reg.Gauge("aacc_cluster_worker_wire_rounds", "", obs.L("worker", w)).Value(); v == 0 {
			t.Errorf("aacc_cluster_worker_wire_rounds{worker=%s} stayed 0 despite the worker-side registry", w)
		}
	}

	// Span correlation: at least one trace key carries the coordinator's
	// command span AND both workers' relayed spans.
	byTrace := map[uint64]map[string]bool{}
	for _, sp := range spans.all() {
		m := byTrace[sp.Trace]
		if m == nil {
			m = map[string]bool{}
			byTrace[sp.Trace] = m
		}
		m[sp.Component+"/"+sp.Name] = true
	}
	correlated := false
	for _, m := range byTrace {
		if m["coord/coord.step"] && m["worker.0/worker.step"] && m["worker.1/worker.step"] {
			correlated = true
			break
		}
	}
	if !correlated {
		t.Errorf("no trace key correlates coord.step with both relayed worker spans: %v", byTrace)
	}
	if unkeyed := byTrace[0]; unkeyed != nil {
		t.Errorf("spans without a trace key (0): %v", unkeyed)
	}

	// Kill worker 1 and drive until the coordinator notices; the death, the
	// rejoin and the resync must land in the flight recorder.
	wcancel()
	select {
	case <-done1:
	case <-time.After(10 * time.Second):
		t.Fatal("killed worker did not exit")
	}
	noticed := false
	for i := 0; i < 10 && !noticed; i++ {
		_, err := coord.Step()
		noticed = err != nil
	}
	if !noticed {
		t.Fatal("coordinator never noticed the dead worker")
	}
	_, done1 = startWorker(t, ctx, coordAddr, meshAddr, base)
	for deadline := time.Now().Add(30 * time.Second); ; {
		alive := 0
		for _, wi := range coord.Workers() {
			if wi.Alive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker did not rejoin")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := coord.Step(); err != nil {
		t.Fatalf("step after rejoin: %v", err)
	}

	kinds := map[string]uint64{} // kind -> a trace (seq) it was recorded under
	for _, ev := range reg.Events().Events() {
		kinds[ev.Kind] = ev.Trace
	}
	for _, k := range []string{"worker-lost", "worker-rejoin", "resync"} {
		tr, ok := kinds[k]
		if !ok {
			t.Errorf("flight recorder missing %q event (have %v)", k, kinds)
			continue
		}
		if tr == 0 {
			t.Errorf("%q event has no sequence-number trace", k)
		}
	}

	if v := reg.Gauge("aacc_cluster_worker_up", "", obs.L("worker", "1")).Value(); v != 1 {
		t.Errorf("aacc_cluster_worker_up{worker=1} = %v after rejoin, want 1", v)
	}

	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, done := range []chan error{done0, done1} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after close", i)
		}
	}
}

// TestJoinVerification rejects a worker whose analysis parameters differ
// from the cluster's, with a reason that reaches the worker, while a
// matching worker is still admitted afterwards.
func TestJoinVerification(t *testing.T) {
	base := testGraph(40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()

	coordC := make(chan *Coordinator, 1)
	errC := make(chan error, 1)
	go func() {
		coord, err := NewCoordinator(ln, base.Clone(), Config{
			Workers:     1,
			P:           testP,
			Seed:        testSeed,
			Partitioner: "multilevel",
			Transport:   transport.Config{RoundTimeout: 2 * time.Second},
			JoinTimeout: 30 * time.Second,
		})
		if err != nil {
			errC <- err
			return
		}
		coordC <- coord
	}()

	// Wrong seed: the deterministic partition would differ.
	badLn := listen(t)
	badErr := RunWorker(ctx, WorkerConfig{
		Coordinator:  coordAddr,
		MeshListener: badLn,
		Graph:        base.Clone(),
		P:            testP,
		Seed:         testSeed + 1,
		Partitioner:  partition.Multilevel{Seed: testSeed + 1},
		DialTimeout:  15 * time.Second,
	})
	if badErr == nil || !strings.Contains(badErr.Error(), "seed") {
		t.Fatalf("mismatched worker error = %v, want a seed rejection", badErr)
	}

	// Wrong graph: fingerprints differ.
	other := gen.BarabasiAlbert(40, 3, testSeed, gen.Config{MaxWeight: 4})
	badLn2 := listen(t)
	badErr = RunWorker(ctx, WorkerConfig{
		Coordinator:  coordAddr,
		MeshListener: badLn2,
		Graph:        other,
		P:            testP,
		Seed:         testSeed,
		Partitioner:  partition.Multilevel{Seed: testSeed},
		DialTimeout:  15 * time.Second,
	})
	if badErr == nil || !strings.Contains(badErr.Error(), "graph") {
		t.Fatalf("mismatched-graph worker error = %v, want a graph rejection", badErr)
	}

	// A matching worker completes formation.
	_, done := startWorker(t, ctx, coordAddr, "", base)
	var coord *Coordinator
	select {
	case coord = <-coordC:
	case err := <-errC:
		t.Fatalf("formation: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("formation did not complete")
	}
	if _, err := coord.Step(); err != nil {
		t.Fatalf("single-worker step: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestClusterApplyBatch drives a typed mutation batch — every edge kind in
// one control round trip per worker — across a live cluster and requires the
// reconverged distances to equal a single-process engine that applied the
// identical batch. A second batch with a failing op pins the
// committed-prefix contract: ops before the failure applied cluster-wide,
// the *core.BatchError indexes the offender, and the mirror stayed in sync.
func TestClusterApplyBatch(t *testing.T) {
	base := testGraph(120)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()
	_, done0 := startWorker(t, ctx, coordAddr, "", base)
	_, done1 := startWorker(t, ctx, coordAddr, "", base)

	coord := newTestCoordinator(t, ln, base.Clone(), 2)
	defer coord.Close()
	ora := oracle(t, base.Clone())
	defer ora.Close()

	step := func() error { _, err := coord.Step(); return err }
	converge(t, "cluster", step, coord.Converged)
	converge(t, "oracle", func() error { _, err := ora.Step(); return err }, ora.Converged)

	edges := base.Edges()
	batch := &core.Batch{Ops: []core.Mutation{
		core.EdgeAdd(graph.EdgeTriple{U: 0, V: graph.ID(base.NumIDs() - 1), W: 1}),
		core.WeightSet(edges[2].U, edges[2].V, edges[2].W+3),
		core.EdgeDelete([2]graph.ID{edges[0].U, edges[0].V}),
		core.EdgeDelete([2]graph.ID{edges[1].U, edges[1].V}),
	}}
	if err := coord.ApplyBatch(batch); err != nil {
		t.Fatalf("cluster batch: %v", err)
	}
	oraBatch := &core.Batch{Ops: make([]core.Mutation, len(batch.Ops))}
	for i := range batch.Ops {
		oraBatch.Ops[i] = batch.Ops[i].Clone()
	}
	if err := ora.ApplyBatch(oraBatch); err != nil {
		t.Fatalf("oracle batch: %v", err)
	}
	if got, want := coord.Graph().NumEdges(), ora.Graph().NumEdges(); got != want {
		t.Fatalf("after batch: mirror has %d edges, oracle %d", got, want)
	}
	converge(t, "cluster reconverge", step, coord.Converged)
	converge(t, "oracle reconverge", func() error { _, err := ora.Step(); return err }, ora.Converged)
	compareDistances(t, "post-batch fixpoint", coord.Distances(), ora.Distances())

	// Committed-prefix: the add before the bad weight set applies, the ops
	// after it do not, and the error names index 1.
	preEdges := coord.Graph().NumEdges()
	bad := &core.Batch{Ops: []core.Mutation{
		core.EdgeAdd(graph.EdgeTriple{U: 1, V: graph.ID(base.NumIDs() - 1), W: 2}),
		core.WeightSet(0, graph.ID(base.NumIDs()-2), 9), // no such edge
		core.EdgeAdd(graph.EdgeTriple{U: 2, V: graph.ID(base.NumIDs() - 1), W: 2}),
	}}
	err := coord.ApplyBatch(bad)
	var be *core.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("failing batch: %v, want BatchError at index 1", err)
	}
	if got := coord.Graph().NumEdges(); got != preEdges+1 {
		t.Fatalf("committed prefix: %d edges, want %d (one add, nothing after the failure)", got, preEdges+1)
	}
	if !coord.Graph().HasEdge(1, graph.ID(base.NumIDs()-1)) || coord.Graph().HasEdge(2, graph.ID(base.NumIDs()-1)) {
		t.Fatal("prefix/suffix mismatch after failing batch")
	}
	// The cluster survives and the mirror still matches the workers.
	if _, err := coord.Step(); err != nil {
		t.Fatalf("step after failed batch: %v", err)
	}

	if err := coord.Close(); err != nil {
		t.Fatalf("coordinator close: %v", err)
	}
	for i, done := range []chan error{done0, done1} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after shutdown", i)
		}
	}
}

// TestWorkerReportsCommittedOps speaks the control protocol to one worker
// directly and pins what FailedOp means on an mMutate reply: the number of
// ops that committed. The coordinator mirrors and logs exactly that prefix,
// so a batch rejected whole by validation (a structurally invalid op no
// honest coordinator would send) must not report the bad op's index while
// the ops before it were never applied.
func TestWorkerReportsCommittedOps(t *testing.T) {
	base := testGraph(40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := listen(t)
	defer ln.Close()
	_, done := startWorker(t, ctx, ln.Addr().String(), "", base)

	deadline := time.Now().Add(30 * time.Second)
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transport.AcceptHello(raw, 0, deadline); err != nil {
		t.Fatal(err)
	}
	cn := newConn(raw, 0)
	defer cn.Close()
	var join joinBody
	if _, err := cn.expect(deadline, &join, mJoin); err != nil {
		t.Fatal(err)
	}
	if err := cn.send(mAssign, assignBody{
		Workers: []string{join.MeshAddr}, Owner: procOwners(testP, 1), Hi: testP,
	}, deadline); err != nil {
		t.Fatal(err)
	}
	var res resultBody
	if _, err := cn.expect(deadline, &res, mReady); err != nil || res.Err != "" {
		t.Fatalf("ready: %v %q", err, res.Err)
	}

	// Every batch is {add a fresh edge, bad op}, so each committed op inserts
	// exactly one edge and the reply's edge count shows what was applied.
	mirror := base.Clone()
	nonEdges := func() (a, b graph.EdgeTriple) {
		var found []graph.EdgeTriple
		for u := graph.ID(0); len(found) < 2; u++ {
			for v := u + 1; int(v) < mirror.NumIDs() && len(found) < 2; v++ {
				if !mirror.HasEdge(u, v) {
					found = append(found, graph.EdgeTriple{U: u, V: v, W: 1})
				}
			}
		}
		return found[0], found[1]
	}
	for _, tc := range []struct {
		name      string
		bad       func(missing graph.EdgeTriple) Op
		committed int // -1: whole-batch rejection, any honest count accepted
	}{
		{"self-loop", func(graph.EdgeTriple) Op {
			return Op{Kind: core.MutEdgeAdd, Edges: []graph.EdgeTriple{{U: 3, V: 3, W: 1}}}
		}, -1},
		{"negative-id", func(graph.EdgeTriple) Op {
			return Op{Kind: core.MutEdgeDelete, Pairs: [][2]graph.ID{{-1, 2}}}
		}, -1},
		{"unknown-kind", func(graph.EdgeTriple) Op { return Op{Kind: 99} }, -1},
		{"missing-edge", func(missing graph.EdgeTriple) Op {
			return Op{Kind: core.MutSetWeight, Edges: []graph.EdgeTriple{missing}}
		}, 1},
	} {
		fresh, missing := nonEdges()
		before := res.M
		ops := []Op{{Kind: core.MutEdgeAdd, Edges: []graph.EdgeTriple{fresh}}, tc.bad(missing)}
		if err := cn.send(mMutate, mutateBody{Seq: res.NextSeq, Ops: ops}, deadline); err != nil {
			t.Fatal(err)
		}
		res = resultBody{}
		if _, err := cn.expect(deadline, &res, mResult); err != nil {
			t.Fatal(err)
		}
		if res.Err == "" {
			t.Fatalf("%s: bad op accepted", tc.name)
		}
		if res.M != before+res.FailedOp {
			t.Fatalf("%s: reply says %d ops committed, but the graph went from %d to %d edges",
				tc.name, res.FailedOp, before, res.M)
		}
		if tc.committed >= 0 && res.FailedOp != tc.committed {
			t.Fatalf("%s: FailedOp = %d, want %d", tc.name, res.FailedOp, tc.committed)
		}
		if res.FailedOp > 0 {
			mirror.AddEdge(fresh.U, fresh.V, fresh.W)
		}
	}

	if err := cn.send(mShutdown, nil, deadline); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestClusterTopKParity: a session wrapped around the coordinator serves the
// bound-based top-k from its mirrored worker rows, and at the fixpoint the
// answer matches the single-process oracle's full-scan ranking exactly —
// the /topk serving path in cluster mode, minus HTTP.
func TestClusterTopKParity(t *testing.T) {
	base := testGraph(100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()
	_, done0 := startWorker(t, ctx, coordAddr, "", base)
	_, done1 := startWorker(t, ctx, coordAddr, "", base)

	coord := newTestCoordinator(t, ln, base.Clone(), 2)
	sess, err := anytime.NewWith(ctx, coord, anytime.Options{})
	if err != nil {
		t.Fatalf("session over coordinator: %v", err)
	}
	defer sess.Close()

	// Activate mid-run so the maintained-index path (not just the lazy
	// fallback) is what answers at convergence.
	sess.TopK(5, true)
	sn, err := sess.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Converged {
		t.Fatalf("cluster session did not converge: %+v", sn)
	}

	ora := oracle(t, base.Clone())
	defer ora.Close()
	converge(t, "oracle", func() error { _, err := ora.Step(); return err }, ora.Converged)
	scores := ora.Scores()

	for _, harmonic := range []bool{true, false} {
		values := scores.Classic
		if harmonic {
			values = scores.Harmonic
		}
		want := centrality.TopK(scores, values, 5)
		res := sess.TopK(5, harmonic)
		if len(res.Entries) != len(want) {
			t.Fatalf("harmonic=%t: %d entries, want %d", harmonic, len(res.Entries), len(want))
		}
		for i, en := range res.Entries {
			if en.V != want[i] || en.Score != values[want[i]] {
				t.Fatalf("harmonic=%t rank %d: cluster says vertex %d (%g), oracle says %d (%g)",
					harmonic, i, en.V, en.Score, want[i], values[want[i]])
			}
			if !en.Resolved {
				t.Fatalf("harmonic=%t rank %d unresolved at the fixpoint", harmonic, i)
			}
		}
	}

	if err := sess.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	for i, done := range []chan error{done0, done1} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after shutdown", i)
		}
	}
}

// lockstepSeed is a graph seed on which some RC step leaves exactly one of
// two workers with its resident slice converged (see
// TestClusterDeletionNotConverged).
const lockstepSeed = int64(4)

// TestClusterDeletionNotConverged is the cluster lockstep regression: an
// edge deletion and a weight increase applied to a two-worker cluster that
// is not converged — while one worker's slice is converged and the other's
// is not, and right behind an edge addition in the same batch — must leave
// every worker in lockstep and match the single-process oracle bit for bit,
// both right after the batch and at the fixpoint. Each worker used to
// converge its engine on its own local flag before invalidating, so the
// workers ran different numbers of exchange rounds and the mesh aborted the
// command; a worker that chose its invalidation from its local flag would
// split the cluster over the endpoint-row all-gather the same way.
func TestClusterDeletionNotConverged(t *testing.T) {
	base := gen.BarabasiAlbert(100, 2, lockstepSeed, gen.Config{MaxWeight: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()
	_, done0 := startWorker(t, ctx, coordAddr, "", base)
	_, done1 := startWorker(t, ctx, coordAddr, "", base)
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(ln, base.Clone(), Config{
		Workers:     2,
		P:           testP,
		Seed:        testSeed,
		Partitioner: "multilevel",
		Transport:   transport.Config{RoundTimeout: 2 * time.Second},
		JoinTimeout: 30 * time.Second,
		Obs:         reg,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	ora := oracle(t, base.Clone())
	defer ora.Close()

	apply := func(when string, ops ...core.Mutation) {
		t.Helper()
		b := &core.Batch{Ops: ops}
		if err := coord.ApplyBatch(b); err != nil {
			t.Fatalf("cluster %s: %v", when, err)
		}
		oraBatch := &core.Batch{Ops: make([]core.Mutation, len(ops))}
		for i := range ops {
			oraBatch.Ops[i] = ops[i].Clone()
		}
		if err := ora.ApplyBatch(oraBatch); err != nil {
			t.Fatalf("oracle %s: %v", when, err)
		}
		compareDistances(t, when, coord.Distances(), ora.Distances())
	}
	step := func() error { _, err := coord.Step(); return err }
	oraStep := func() error { _, err := ora.Step(); return err }
	edges := base.Edges()

	// Step until exactly one of the two workers reports its slice converged.
	progress := reg.Gauge("aacc_cluster_convergence_progress", "")
	for progress.Value() != 0.5 {
		if coord.Converged() {
			t.Fatal("no step left exactly one worker converged; pick another lockstepSeed")
		}
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if err := oraStep(); err != nil {
			t.Fatal(err)
		}
	}
	apply("split convergence",
		core.EdgeDelete([2]graph.ID{edges[0].U, edges[0].V}),
		core.WeightSet(edges[1].U, edges[1].V, edges[1].W+3))

	converge(t, "cluster", step, coord.Converged)
	converge(t, "oracle", oraStep, ora.Converged)
	apply("behind an addition",
		core.EdgeAdd(graph.EdgeTriple{U: 0, V: graph.ID(base.NumIDs() - 1), W: 1}),
		core.EdgeDelete([2]graph.ID{edges[2].U, edges[2].V}),
		core.WeightSet(edges[3].U, edges[3].V, edges[3].W+2))

	converge(t, "cluster reconverge", step, coord.Converged)
	converge(t, "oracle reconverge", oraStep, ora.Converged)
	compareDistances(t, "post-update fixpoint", coord.Distances(), ora.Distances())

	if err := coord.Close(); err != nil {
		t.Fatalf("coordinator close: %v", err)
	}
	for i, done := range []chan error{done0, done1} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after shutdown", i)
		}
	}
}

// TestClusterEdgeAddBatchOneGather runs an edge-addition batch on a
// two-worker cluster: the endpoint rows are gathered once per batch (one
// tree broadcast per distinct endpoint owner, summed over the workers, and
// one row all-gather), and the distances are bit-identical to a
// single-process engine applying the edges as k singleton batches — right
// after the batch and at the fixpoint.
func TestClusterEdgeAddBatchOneGather(t *testing.T) {
	base := testGraph(120)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln := listen(t)
	coordAddr := ln.Addr().String()
	_, done0 := startWorker(t, ctx, coordAddr, "", base)
	_, done1 := startWorker(t, ctx, coordAddr, "", base)

	coord := newTestCoordinator(t, ln, base.Clone(), 2)
	defer coord.Close()
	ora := oracle(t, base.Clone())
	defer ora.Close()

	step := func() error { _, err := coord.Step(); return err }
	oraStep := func() error { _, err := ora.Step(); return err }
	for i := 0; i < 2; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if err := oraStep(); err != nil {
			t.Fatal(err)
		}
	}

	var batch []graph.EdgeTriple
	owners := make(map[int]bool)
	for u := graph.ID(0); len(batch) < 6; u += 11 {
		v := graph.ID(base.NumIDs()-1) - u
		if base.HasEdge(u, v) {
			continue
		}
		batch = append(batch, graph.EdgeTriple{U: u, V: v, W: int32(1 + len(batch)%3)})
		owners[ora.Owner(u)] = true
		owners[ora.Owner(v)] = true
	}
	before := coord.Stats().Broadcasts
	if err := coord.ApplyBatch(&core.Batch{Ops: []core.Mutation{core.EdgeAdd(batch...)}}); err != nil {
		t.Fatalf("cluster batch: %v", err)
	}
	if got := coord.Stats().Broadcasts - before; got != int64(len(owners)) {
		t.Errorf("a batch of %d edges recorded %d broadcasts, want one per endpoint owner (%d)", len(batch), got, len(owners))
	}
	for _, ed := range batch {
		if err := ora.ApplyBatch(&core.Batch{Ops: []core.Mutation{core.EdgeAdd(ed)}}); err != nil {
			t.Fatalf("oracle singleton: %v", err)
		}
	}
	compareDistances(t, "after the batch", coord.Distances(), ora.Distances())
	converge(t, "cluster", step, coord.Converged)
	converge(t, "oracle", oraStep, ora.Converged)
	compareDistances(t, "fixpoint", coord.Distances(), ora.Distances())

	if err := coord.Close(); err != nil {
		t.Fatalf("coordinator close: %v", err)
	}
	for i, done := range []chan error{done0, done1} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exit: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after shutdown", i)
		}
	}
}
