package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/obs"
	"aacc/internal/runtime"
	"aacc/internal/transport"
)

// Config parameterises a Coordinator. P, Seed and Partitioner must match the
// flags every worker was launched with — they are verified at join time, not
// trusted.
type Config struct {
	// Workers is the cluster size; NewCoordinator blocks until this many
	// workers have joined. Must be in [1, P] so every worker hosts at least
	// one processor.
	Workers int
	// P, Seed, Partitioner are the analysis parameters the deterministic
	// partition depends on. Partitioner is the name (e.g. "multilevel").
	P           int
	Seed        int64
	Partitioner string
	// Transport times the control dialogues; RoundTimeout is also dictated
	// to every worker's mesh so all processes agree on when a round is dead.
	Transport transport.Config
	// JoinTimeout bounds cluster formation and each rejoin dialogue
	// (default 2m — a rejoin includes a full DD+IA rebuild plus log replay).
	JoinTimeout time.Duration
	// Logger, when set, narrates joins, failures and kills.
	Logger *slog.Logger
	// Obs, when set, receives cluster-level gauges (workers alive, rejoins)
	// plus the per-worker aacc_cluster_worker_* families re-exported from the
	// metric snapshots workers piggyback on their result replies. Its flight
	// recorder collects worker-lost/expelled/rejoin events.
	Obs *obs.Registry
	// Spans, when set, receives coordinator command spans (coord.step,
	// coord.mutate, coord.resync, coord.collect) and the per-command worker
	// spans relayed over the control connection, all keyed by the collective
	// sequence number so one command can be followed across processes.
	Spans obs.SpanSink
}

func (c Config) withDefaults() Config {
	c.Transport = c.Transport.Normalize()
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 2 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// discardHandler is the never-enabled handler behind a nil Config.Logger:
// Enabled reports false, so a log call returns before building its record.
// The standard library's equivalent needs go 1.24; go.mod declares 1.22.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// commandTimeout bounds one read on a control connection while a command is
// in flight. The slowest legitimate gap between worker messages is a mesh
// round timing out against a dead peer plus the local compute that follows.
func (c Config) commandTimeout() time.Duration {
	return 2*c.Transport.RoundTimeout + 30*time.Second
}

// WorkerInfo is one row of the coordinator's worker table, exported for the
// observability endpoint.
type WorkerInfo struct {
	Index   int
	Addr    string // mesh address
	Alive   bool
	LastErr string // last control-level failure ("" while healthy)
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	index    int
	meshAddr string
	cn       *conn // current control connection (nil while dead)
	alive    bool
	lastErr  string
	stats    cluster.Stats
	rows     map[graph.ID][]int32 // last reported distance rows (kept after death)
	// metricsAt is when the worker's last piggybacked metric snapshot
	// arrived, unix nanos. Atomic because the staleness GaugeFunc reads it at
	// scrape time without the coordinator mutex.
	metricsAt atomic.Int64
}

// Coordinator drives a cluster of worker processes and implements the same
// engine surface anytime.Session orchestrates (anytime.Engine — stepping,
// reads and the one ApplyBatch mutation entry point — checked in the cli
// package to keep the import direction dist ← cli → anytime): the session
// layer gains multi-process deployment without learning anything about
// sockets. All methods are serialised by one mutex, which rejoin
// admission also takes — a worker is only ever admitted between commands.
type Coordinator struct {
	cfg Config
	ln  net.Listener
	fp  uint64 // base-graph fingerprint

	mu            sync.Mutex
	g             *graph.Graph // mirror of the cluster's current graph
	ws            []*workerState
	seq           uint32 // next collective sequence number to assign
	stepCount     int
	converged     bool
	pendingResync bool // a worker rejoined; force full resends before next command
	log           []Op // every committed mutation since the base graph
	closed        bool

	acceptDone chan struct{}

	rec   *obs.Recorder // flight recorder (nil-safe; rides cfg.Obs)
	spans obs.SpanSink  // cfg.Spans, cached

	obAlive       *obs.Gauge
	obRejoins     *obs.Counter
	obConvergence *obs.Gauge
}

// NewCoordinator forms the cluster: it accepts cfg.Workers control
// connections on ln (rejecting joiners whose graph or parameters do not
// match), assigns each worker a contiguous processor range, waits for every
// engine to finish DD+IA, and starts the rejoin accept loop. The base graph g
// is retained as the coordinator's mirror and mutated by ApplyBatch.
func NewCoordinator(ln net.Listener, g *graph.Graph, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 || cfg.Workers > cfg.P {
		return nil, fmt.Errorf("dist: %d workers need 1 <= workers <= P=%d", cfg.Workers, cfg.P)
	}
	c := &Coordinator{
		cfg:        cfg,
		ln:         ln,
		fp:         Fingerprint(g),
		g:          g,
		acceptDone: make(chan struct{}),
	}
	c.rec = cfg.Obs.Events()
	c.spans = cfg.Spans
	if cfg.Obs != nil {
		c.obAlive = cfg.Obs.Gauge("aacc_dist_workers_alive", "control connections currently healthy")
		c.obRejoins = cfg.Obs.Counter("aacc_dist_worker_rejoins_total", "workers re-admitted after a crash")
		c.obConvergence = cfg.Obs.Gauge("aacc_cluster_convergence_progress",
			"fraction of workers reporting their resident slice converged on the last command")
	}
	if err := c.form(); err != nil {
		ln.Close()
		return nil, err
	}
	go c.acceptLoop()
	return c, nil
}

// form runs initial cluster formation: collect cfg.Workers verified joins,
// then assign and wait ready.
func (c *Coordinator) form() error {
	deadline := time.Now().Add(c.cfg.JoinTimeout)
	type joiner struct {
		cn   *conn
		join joinBody
	}
	var joined []joiner
	addrs := make(map[string]bool)
	for len(joined) < c.cfg.Workers {
		if err := setListenerDeadline(c.ln, deadline); err != nil {
			return err
		}
		raw, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: cluster formation: %d of %d workers joined: %w",
				len(joined), c.cfg.Workers, err)
		}
		cn, join, err := c.admit(raw, deadline)
		if err != nil {
			c.cfg.Logger.Warn("join rejected", "err", err)
			continue
		}
		if addrs[join.MeshAddr] {
			cn.send(mReject, rejectBody{Reason: fmt.Sprintf("mesh address %s already joined", join.MeshAddr)}, deadline)
			cn.Close()
			continue
		}
		addrs[join.MeshAddr] = true
		joined = append(joined, joiner{cn, join})
		c.cfg.Logger.Info("worker joined", "index", len(joined)-1, "mesh", join.MeshAddr)
	}
	w := c.cfg.Workers
	workers := make([]string, w)
	for i, j := range joined {
		workers[i] = j.join.MeshAddr
	}
	owner := procOwners(c.cfg.P, w)
	c.ws = make([]*workerState, w)
	for i, j := range joined {
		lo, hi := procRange(c.cfg.P, w, i)
		if err := j.cn.send(mAssign, assignBody{
			Index: i, Workers: workers, Owner: owner, Lo: lo, Hi: hi,
			BaseSeq:            0,
			RoundTimeoutMillis: c.cfg.Transport.RoundTimeout.Milliseconds(),
		}, deadline); err != nil {
			return fmt.Errorf("dist: assigning worker %d: %w", i, err)
		}
		c.ws[i] = &workerState{index: i, meshAddr: j.join.MeshAddr, cn: j.cn, alive: true}
	}
	for i, ws := range c.ws {
		var res resultBody
		if _, err := ws.cn.expect(deadline, &res, mReady); err != nil {
			return fmt.Errorf("dist: waiting for worker %d: %w", i, err)
		}
		if res.Err != "" {
			return fmt.Errorf("dist: worker %d failed to build its engine: %s", i, res.Err)
		}
		ws.stats = res.Stats
		c.noteWorkerMetrics(i, &res)
	}
	c.noteAlive()
	c.cfg.Logger.Info("cluster formed", "workers", w, "p", c.cfg.P)
	return nil
}

// admit runs the hello + join verification on a fresh control connection.
// On error the connection is closed (after a best-effort reject message).
func (c *Coordinator) admit(raw net.Conn, deadline time.Time) (*conn, joinBody, error) {
	if _, err := transport.AcceptHello(raw, 0, deadline); err != nil {
		raw.Close()
		return nil, joinBody{}, err
	}
	cn := newConn(raw, c.cfg.Transport.MaxFrame)
	var join joinBody
	if _, err := cn.expect(deadline, &join, mJoin); err != nil {
		cn.Close()
		return nil, joinBody{}, err
	}
	reject := func(format string, args ...any) (*conn, joinBody, error) {
		reason := fmt.Sprintf(format, args...)
		cn.send(mReject, rejectBody{Reason: reason}, deadline)
		cn.Close()
		return nil, joinBody{}, fmt.Errorf("dist: %s", reason)
	}
	switch {
	case join.P != c.cfg.P:
		return reject("worker runs P=%d, cluster runs P=%d", join.P, c.cfg.P)
	case join.Seed != c.cfg.Seed:
		return reject("worker seed %d does not match cluster seed %d", join.Seed, c.cfg.Seed)
	case join.Partitioner != c.cfg.Partitioner:
		return reject("worker partitioner %q does not match cluster partitioner %q", join.Partitioner, c.cfg.Partitioner)
	case join.Fingerprint != c.fp:
		return reject("worker base graph (fp %x, %d vertices, %d edges) does not match the coordinator's (fp %x)",
			join.Fingerprint, join.N, join.M, c.fp)
	case join.MeshAddr == "":
		return reject("worker announced no mesh address")
	}
	return cn, join, nil
}

// acceptLoop admits rejoining workers for the coordinator's lifetime. Each
// rejoin holds the coordinator mutex for its whole dialogue: the replayed log
// and assigned sequence number must be a consistent cut, and holding the lock
// is what guarantees no mutation or step lands in between. Session stepping
// blocks for the duration — the cluster was degraded anyway.
func (c *Coordinator) acceptLoop() {
	defer close(c.acceptDone)
	for {
		setListenerDeadline(c.ln, time.Time{})
		raw, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		deadline := time.Now().Add(c.cfg.JoinTimeout)
		cn, join, err := c.admit(raw, deadline)
		if err != nil {
			c.cfg.Logger.Warn("rejoin rejected", "err", err)
			continue
		}
		if err := c.readmit(cn, join, deadline); err != nil {
			c.cfg.Logger.Warn("rejoin failed", "mesh", join.MeshAddr, "err", err)
			cn.Close()
		}
	}
}

// readmit re-admits a verified joiner: match it to its slot by mesh address,
// ship the transformed mutation log, wait for the rebuilt engine, and mark
// the cluster for a full resync.
func (c *Coordinator) readmit(cn *conn, join joinBody, deadline time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("coordinator closed")
	}
	var ws *workerState
	for _, w := range c.ws {
		if w.meshAddr == join.MeshAddr {
			ws = w
			break
		}
	}
	if ws == nil {
		known := make([]string, len(c.ws))
		for i, w := range c.ws {
			known[i] = w.meshAddr
		}
		reason := fmt.Sprintf("mesh address %s is not part of this cluster (workers: %s)",
			join.MeshAddr, strings.Join(known, ", "))
		cn.send(mReject, rejectBody{Reason: reason}, deadline)
		return fmt.Errorf("%s", reason)
	}
	if ws.alive {
		// The old connection is stale (the process died without a FIN we
		// noticed, or was restarted in place); the fresh hello wins, exactly
		// like the peer mesh's accept-replaces rule.
		ws.cn.Close()
		ws.alive = false
	}
	replay := make([]Op, 0, len(c.log))
	for _, op := range c.log {
		replay = append(replay, transformForReplay(op)...)
	}
	workers := make([]string, len(c.ws))
	for i, w := range c.ws {
		workers[i] = w.meshAddr
	}
	lo, hi := procRange(c.cfg.P, len(c.ws), ws.index)
	if err := cn.send(mAssign, assignBody{
		Index: ws.index, Workers: workers, Owner: procOwners(c.cfg.P, len(c.ws)),
		Lo: lo, Hi: hi,
		BaseSeq:            c.seq,
		Replay:             replay,
		RoundTimeoutMillis: c.cfg.Transport.RoundTimeout.Milliseconds(),
	}, deadline); err != nil {
		return err
	}
	var res resultBody
	if _, err := cn.expect(deadline, &res, mReady); err != nil {
		return err
	}
	if res.Err != "" {
		return fmt.Errorf("rebuilt engine failed: %s", res.Err)
	}
	if res.N != c.g.NumVertices() || res.M != c.g.NumEdges() {
		reason := fmt.Sprintf("replayed graph has %d vertices / %d edges, coordinator mirror has %d / %d",
			res.N, res.M, c.g.NumVertices(), c.g.NumEdges())
		cn.send(mReject, rejectBody{Reason: reason}, deadline)
		return fmt.Errorf("%s", reason)
	}
	ws.cn = cn
	ws.alive = true
	ws.lastErr = ""
	ws.stats = res.Stats
	c.noteWorkerMetrics(ws.index, &res)
	c.pendingResync = true
	c.converged = false
	c.noteAlive()
	if c.obRejoins != nil {
		c.obRejoins.Inc()
	}
	c.rec.Record("dist", "worker-rejoin", uint64(c.seq),
		fmt.Sprintf("worker %d (%s) rebuilt from %d replayed ops at seq %d", ws.index, ws.meshAddr, len(replay), c.seq))
	c.cfg.Logger.Info("worker rejoined", "index", ws.index, "mesh", ws.meshAddr, "replayed", len(replay))
	return nil
}

// procRange returns worker i's contiguous resident processor range.
func procRange(p, workers, i int) (lo, hi int) {
	return i * p / workers, (i + 1) * p / workers
}

// procOwners returns the processor → worker index table.
func procOwners(p, workers int) []int {
	owner := make([]int, p)
	for i := 0; i < workers; i++ {
		lo, hi := procRange(p, workers, i)
		for pp := lo; pp < hi; pp++ {
			owner[pp] = i
		}
	}
	return owner
}

func setListenerDeadline(ln net.Listener, t time.Time) error {
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// markDead records a worker's control-level failure and closes its
// connection. Callers hold c.mu.
func (c *Coordinator) markDead(ws *workerState, reason string) {
	if !ws.alive {
		return
	}
	ws.alive = false
	ws.lastErr = reason
	if ws.cn != nil {
		ws.cn.Close()
	}
	c.noteAlive()
	c.rec.Record("dist", "worker-lost", uint64(c.seq),
		fmt.Sprintf("worker %d (%s): %s", ws.index, ws.meshAddr, reason))
	c.cfg.Logger.Warn("worker lost", "index", ws.index, "mesh", ws.meshAddr, "reason", reason)
}

func (c *Coordinator) noteAlive() {
	n := 0
	for _, w := range c.ws {
		if w.alive {
			n++
		}
		if c.cfg.Obs != nil {
			up := 0.0
			if w.alive {
				up = 1
			}
			c.cfg.Obs.Gauge("aacc_cluster_worker_up", "1 while the worker's control connection is healthy",
				obs.L("worker", strconv.Itoa(w.index))).Set(up)
		}
	}
	if c.obAlive != nil {
		c.obAlive.Set(float64(n))
	}
}

// noteWorkerMetrics re-exports one worker's piggybacked metric snapshot as
// per-worker-labeled gauge families. The gauge lookups are idempotent child
// fetches — registration cost is paid once per worker, and this runs on the
// control path, never per row. Callers hold c.mu.
func (c *Coordinator) noteWorkerMetrics(idx int, res *resultBody) {
	if res.Metrics == nil {
		return
	}
	c.ws[idx].metricsAt.Store(time.Now().UnixNano())
	if c.cfg.Obs == nil {
		return
	}
	m := res.Metrics
	lbl := obs.L("worker", strconv.Itoa(idx))
	set := func(name, help string, v float64) {
		c.cfg.Obs.Gauge(name, help, lbl).Set(v)
	}
	set("aacc_cluster_worker_uptime_seconds", "worker process uptime from its last snapshot", m.UptimeSeconds)
	set("aacc_cluster_worker_heap_bytes", "worker heap in use from its last snapshot", float64(m.HeapBytes))
	set("aacc_cluster_worker_goroutines", "goroutines in the worker process", float64(m.Goroutines))
	set("aacc_cluster_worker_pool_workers", "intra-process pool size on the worker", float64(m.PoolWorkers))
	set("aacc_cluster_worker_resident_procs", "simulated processors resident on the worker", float64(m.ResidentProcs))
	set("aacc_cluster_worker_steps", "RC steps the worker's engine has run", float64(res.Step))
	set("aacc_cluster_worker_step_failures", "failed engine steps reported by the worker", m.StepFailures)
	set("aacc_cluster_worker_wire_rounds", "exchange wire rounds the worker has driven", m.WireRounds)
	set("aacc_cluster_worker_wire_round_failures", "aborted exchange wire rounds on the worker", m.WireRoundFailures)
	set("aacc_cluster_worker_wire_retries", "wire round retries on the worker", m.WireRetries)
	conv := 0.0
	if res.Converged {
		conv = 1
	}
	set("aacc_cluster_worker_converged", "1 while the worker's resident slice is converged", conv)
	// Staleness is computed at scrape time from the atomic timestamp, so a
	// worker that stops reporting shows a growing age instead of a frozen
	// snapshot. First registration wins; re-registering is a no-op.
	ws := c.ws[idx]
	c.cfg.Obs.GaugeFunc("aacc_cluster_worker_metrics_age_seconds",
		"seconds since this worker's last piggybacked metric snapshot", func() float64 {
			t := ws.metricsAt.Load()
			if t == 0 {
				return -1
			}
			return time.Since(time.Unix(0, t)).Seconds()
		}, lbl)
}

// relaySpans re-emits the spans a worker piggybacked on its result, tagged
// with the worker's index and the command's collective sequence number so
// they correlate with the coordinator's own command span and the session's
// events. Callers hold c.mu.
func (c *Coordinator) relaySpans(cmdSeq uint64, idx int, spans []wireSpan) {
	if c.spans == nil {
		return
	}
	comp := "worker." + strconv.Itoa(idx)
	for _, sp := range spans {
		c.spans.Span(obs.Span{
			Trace:     cmdSeq,
			Component: comp,
			Name:      sp.Name,
			Start:     time.UnixMicro(sp.StartUnixMicro),
			Dur:       time.Duration(sp.DurMicros) * time.Microsecond,
			Err:       sp.Err,
		})
	}
}

// coordSpan emits one coordinator-side command span keyed by the command's
// collective sequence number.
func (c *Coordinator) coordSpan(name string, seq uint32, start time.Time, detail string, err error) {
	if c.spans == nil {
		return
	}
	sp := obs.Span{
		Trace:     uint64(seq),
		Component: "coord",
		Name:      name,
		Start:     start,
		Dur:       time.Since(start),
		Detail:    detail,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	c.spans.Span(sp)
}

// SpanKey reports the next collective sequence number as the cluster's trace
// correlation key. The session layer discovers this method by interface
// assertion and keys its own events and spans with it, so a session-level
// degradation lines up with the coordinator and worker spans of the command
// that caused it.
func (c *Coordinator) SpanKey() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint64(c.seq)
}

// outcome is one worker's result for one driven command.
type outcome struct {
	res *resultBody
	err error // control-level failure (worker is dead)
}

// drive runs one command across every live worker, servicing the exchange
// commit barrier as it goes: whenever every still-running worker has voted on
// an exchange round, the verdict (commit iff all votes are OK) is broadcast
// and the workers continue — a command may contain many such rounds (a
// barrier-mode deletion converges internally). Workers whose control
// connection fails mid-command are marked dead. Callers hold c.mu.
func (c *Coordinator) drive(send func(ws *workerState) error) map[int]outcome {
	var parts []*workerState
	for _, w := range c.ws {
		if w.alive {
			parts = append(parts, w)
		}
	}
	type event struct {
		ws     *workerState
		status *statusBody
		res    *resultBody
		err    error
	}
	evC := make(chan event)
	decs := make(map[int]chan decisionBody, len(parts))
	for _, w := range parts {
		decs[w.index] = make(chan decisionBody, 1)
	}
	cmdTimeout := c.cfg.commandTimeout()
	for _, w := range parts {
		go func(w *workerState) {
			if err := send(w); err != nil {
				evC <- event{ws: w, err: err}
				return
			}
			for {
				kind, body, err := w.cn.recv(time.Now().Add(cmdTimeout))
				if err != nil {
					evC <- event{ws: w, err: err}
					return
				}
				switch kind {
				case mExchStatus:
					var st statusBody
					if err := unmarshalBody(kind, body, &st); err != nil {
						evC <- event{ws: w, err: err}
						return
					}
					evC <- event{ws: w, status: &st}
					d := <-decs[w.index]
					if err := w.cn.send(mExchDecision, d, time.Now().Add(30*time.Second)); err != nil {
						evC <- event{ws: w, err: err}
						return
					}
				case mResult:
					var res resultBody
					if err := unmarshalBody(kind, body, &res); err != nil {
						evC <- event{ws: w, err: err}
						return
					}
					evC <- event{ws: w, res: &res}
					return
				default:
					evC <- event{ws: w, err: fmt.Errorf("dist: unexpected %s during command", msgName(kind))}
					return
				}
			}
		}(w)
	}
	out := make(map[int]outcome, len(parts))
	unfinished := len(parts)
	pending := make(map[int]statusBody)
	for unfinished > 0 {
		e := <-evC
		switch {
		case e.err != nil:
			out[e.ws.index] = outcome{err: e.err}
			c.markDead(e.ws, e.err.Error())
			delete(pending, e.ws.index)
			unfinished--
		case e.res != nil:
			out[e.ws.index] = outcome{res: e.res}
			unfinished--
		case e.status != nil:
			pending[e.ws.index] = *e.status
		}
		if unfinished > 0 && len(pending) == unfinished {
			commit := true
			var reasons []string
			for idx, st := range pending {
				if !st.OK {
					commit = false
					reasons = append(reasons, fmt.Sprintf("worker %d: %s", idx, st.Err))
				}
			}
			sort.Strings(reasons)
			d := decisionBody{Commit: commit, Reason: strings.Join(reasons, "; ")}
			for idx := range pending {
				decs[idx] <- d
			}
			pending = make(map[int]statusBody)
		}
	}
	return out
}

func unmarshalBody(kind byte, body []byte, out any) error {
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("dist: decoding %s: %w", msgName(kind), err)
	}
	return nil
}

// consensusKey is the state summary every worker must agree on after a
// command; disagreement means a worker committed something the others did
// not, and the minority is expelled to rejoin through the replay path. Only
// replicated state belongs here: the sequence number (collectives consumed)
// and the graph shape (mutations applied). Convergence is absent because
// each worker's flag covers only its resident slice, and the step counter is
// absent because a rejoined worker's fresh engine legitimately restarts at
// zero — both are folded across the winner group instead.
type consensusKey struct {
	nextSeq uint32
	n, m    int
}

func keyOf(res *resultBody) consensusKey {
	return consensusKey{nextSeq: res.NextSeq, n: res.N, m: res.M}
}

// settle folds a drive's outcomes into the coordinator's state: group the
// results, keep the largest consistent group of successes (ties to the group
// holding the lowest worker index), expel everyone else, and adopt the
// winning group's sequence/step/convergence. With no successes the error
// group's sequence is still adopted — an aborted exchange consumes its
// sequence number everywhere — and the shared error is returned. Callers
// hold c.mu.
func (c *Coordinator) settle(outs map[int]outcome) (*resultBody, error) {
	groups := make(map[consensusKey][]int)
	errGroups := make(map[consensusKey][]int)
	var firstErr string
	cmdSeq := uint64(c.seq) // the seq this command ran under (updated below)
	for idx, o := range outs {
		if o.res == nil {
			continue
		}
		c.relaySpans(cmdSeq, idx, o.res.Spans)
		c.noteWorkerMetrics(idx, o.res)
		if o.res.Err == "" {
			groups[keyOf(o.res)] = append(groups[keyOf(o.res)], idx)
		} else {
			errGroups[keyOf(o.res)] = append(errGroups[keyOf(o.res)], idx)
			if firstErr == "" || idx == 0 {
				firstErr = o.res.Err
			}
		}
	}
	pick := func(gs map[consensusKey][]int) (consensusKey, []int) {
		var bestKey consensusKey
		var best []int
		for key, idxs := range gs {
			sort.Ints(idxs)
			if best == nil || len(idxs) > len(best) || (len(idxs) == len(best) && idxs[0] < best[0]) {
				bestKey, best = key, idxs
			}
		}
		return bestKey, best
	}
	if len(groups) > 0 {
		key, winners := pick(groups)
		inWin := make(map[int]bool, len(winners))
		for _, idx := range winners {
			inWin[idx] = true
		}
		var rep resultBody
		rep.Converged = true
		for idx, o := range outs {
			if o.res == nil {
				continue // control failure, already dead
			}
			if !inWin[idx] {
				c.expel(idx, fmt.Sprintf("diverged from cluster consensus (seq %d n %d m %d)",
					key.nextSeq, key.n, key.m))
				continue
			}
			rep.RowsSent += o.res.RowsSent
			rep.RowsChanged += o.res.RowsChanged
			rep.MessagesSent += o.res.MessagesSent
			rep.Converged = rep.Converged && o.res.Converged
			if o.res.Step > c.stepCount {
				c.stepCount = o.res.Step
			}
			c.ws[idx].stats = o.res.Stats
		}
		rep.NextSeq, rep.Step, rep.N, rep.M = key.nextSeq, c.stepCount, key.n, key.m
		c.seq = key.nextSeq
		c.converged = rep.Converged
		if c.obConvergence != nil {
			conv := 0
			for _, idx := range winners {
				if outs[idx].res.Converged {
					conv++
				}
			}
			c.obConvergence.Set(float64(conv) / float64(len(c.ws)))
		}
		return &rep, nil
	}
	if len(errGroups) > 0 {
		key, keep := pick(errGroups)
		inKeep := make(map[int]bool, len(keep))
		for _, idx := range keep {
			inKeep[idx] = true
		}
		for idx, o := range outs {
			if o.res != nil && !inKeep[idx] {
				c.expel(idx, "diverged from cluster consensus while failing a command")
			}
		}
		c.seq = key.nextSeq
		for _, idx := range keep {
			if s := outs[idx].res.Step; s > c.stepCount {
				c.stepCount = s
			}
		}
		// Hand the kept group's representative result back alongside the
		// error: a failed mutate batch needs its FailedOp and graph shape to
		// mirror the committed prefix and detect half-applied ops
		// (mutateBatch runs that divergence check once the mirror caught
		// up — here the prefix is not yet mirrored, so comparing would
		// misfire).
		rep := *outs[keep[0]].res
		rep.Step = c.stepCount
		return &rep, fmt.Errorf("%s", firstErr)
	}
	return nil, fmt.Errorf("all workers lost during command")
}

// expel closes a diverged worker's connection so its process exits and comes
// back through the rejoin/replay path. Callers hold c.mu.
func (c *Coordinator) expel(idx int, reason string) {
	ws := c.ws[idx]
	c.rec.Record("dist", "worker-expelled", uint64(c.seq),
		fmt.Sprintf("worker %d (%s): %s", idx, ws.meshAddr, reason))
	c.cfg.Logger.Warn("worker expelled", "index", idx, "reason", reason)
	c.markDead(ws, reason)
}

// preflight verifies every worker is reachable and runs the pending
// post-rejoin resync. Callers hold c.mu.
func (c *Coordinator) preflight() error {
	if c.closed {
		return fmt.Errorf("dist: coordinator closed")
	}
	var down []string
	for _, w := range c.ws {
		if !w.alive {
			down = append(down, fmt.Sprintf("%d (%s)", w.index, w.meshAddr))
		}
	}
	if len(down) > 0 {
		return fmt.Errorf("dist: workers down: %s: %w", strings.Join(down, ", "), core.ErrExchange)
	}
	if !c.pendingResync {
		return nil
	}
	// A worker rejoined since the last command: its peers' send bookkeeping
	// still assumes the pre-crash rows were delivered. Queue a full resend
	// of every row on every worker so the next rounds rebuild the exchange
	// invariants from scratch.
	seq := c.seq
	start := time.Now()
	c.rec.Record("dist", "resync", uint64(seq), "full row resend after rejoin")
	outs := c.drive(func(ws *workerState) error {
		return ws.cn.send(mResync, resyncBody{Seq: seq}, time.Now().Add(30*time.Second))
	})
	_, err := c.settle(outs)
	c.coordSpan("coord.resync", seq, start, "full row resend after rejoin", err)
	if err != nil {
		return fmt.Errorf("dist: resync after rejoin: %v: %w", err, core.ErrExchange)
	}
	c.pendingResync = false
	c.converged = false
	c.cfg.Logger.Info("cluster resynced after rejoin")
	return nil
}

// Step drives one RC step across the cluster. The error wraps
// core.ErrExchange whenever the step did not happen (worker down, exchange
// aborted): every engine rolled the round back, exactly like a failed
// single-process wire step, so the session's degraded-mode retry applies
// unchanged.
func (c *Coordinator) Step() (core.StepReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.preflight(); err != nil {
		return core.StepReport{}, err
	}
	seq := c.seq
	start := time.Now()
	outs := c.drive(func(ws *workerState) error {
		return ws.cn.send(mStep, stepBody{Seq: seq}, time.Now().Add(30*time.Second))
	})
	win, err := c.settle(outs)
	if err != nil {
		c.coordSpan("coord.step", seq, start, "", err)
		return core.StepReport{}, fmt.Errorf("dist: step: %v: %w", err, core.ErrExchange)
	}
	c.coordSpan("coord.step", seq, start,
		fmt.Sprintf("step %d: %d rows sent, %d changed", win.Step, win.RowsSent, win.RowsChanged), nil)
	return core.StepReport{
		Step:         win.Step,
		RowsSent:     win.RowsSent,
		RowsChanged:  win.RowsChanged,
		MessagesSent: win.MessagesSent,
		Converged:    win.Converged,
	}, nil
}

// mutateBatch drives a batch of logged mutations across the cluster as ONE
// control round trip per worker and applies the committed prefix to the
// mirror graph. Workers stop at the first failing op (everything before it
// stays applied, exactly like the engine's own batch apply); the coordinator
// mirrors and logs only that committed prefix, so the rejoin replay log
// remains a faithful reconstruction even of a partially failed batch. It
// returns the number of committed ops (len(ops) on success) alongside the
// error; a batch the workers rejected whole reports 0.
func (c *Coordinator) mutateBatch(ops []Op) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.preflight(); err != nil {
		return 0, err
	}
	seq := c.seq
	start := time.Now()
	outs := c.drive(func(ws *workerState) error {
		return ws.cn.send(mMutate, mutateBody{Seq: seq, Ops: ops}, time.Now().Add(30*time.Second))
	})
	win, err := c.settle(outs)
	c.coordSpan("coord.mutate", seq, start, fmt.Sprintf("%d logged ops", len(ops)), err)
	if err != nil {
		committed := 0
		if win != nil {
			committed = min(max(win.FailedOp, 0), len(ops)-1)
		}
		for _, op := range ops[:committed] {
			c.applyMirror(op)
			c.log = append(c.log, op)
		}
		if win != nil && (win.N != c.g.NumVertices() || win.M != c.g.NumEdges()) {
			// The failing op mutated the workers' graphs before erroring (a
			// compound op can fail halfway): the mirror and its replay log
			// can no longer reproduce their state. Expel the survivors so
			// the rejoin/replay path restores consistency.
			for idx, w := range c.ws {
				if w.alive {
					c.expel(idx, "graph diverged from coordinator mirror after a half-applied mutation")
				}
			}
		}
		return committed, fmt.Errorf("dist: %s: %s", ops[committed].Kind, err)
	}
	for _, op := range ops {
		c.applyMirror(op)
		c.log = append(c.log, op)
	}
	if win.N != c.g.NumVertices() || win.M != c.g.NumEdges() {
		// The workers and the mirror disagree about the graph the batch
		// produced — the coordinator's replay log is no longer a faithful
		// reconstruction. This is a bug, not an operational fault; surface
		// it loudly instead of letting rejoins diverge silently.
		return len(ops), fmt.Errorf("dist: %s: workers report %d vertices / %d edges, mirror has %d / %d",
			ops[len(ops)-1].Kind, win.N, win.M, c.g.NumVertices(), c.g.NumEdges())
	}
	return len(ops), nil
}

// ApplyBatch lowers a typed mutation batch to wire ops — one per mutation —
// and drives them across the cluster in one control round trip per worker:
// the coordinator's only mutation entry point and the path behind the
// session's ingest pipeline. A failure is reported as a *core.BatchError
// indexing the offending batch op; ops before it committed cluster-wide, ops
// after it did not run (unlike the single-process engine the cluster cannot
// retry past a failure, so the session's per-constituent fallback sees
// honest verdicts). Mutations with no cluster implementation (vertex
// additions/removals, repartitioning) fail at their index after the
// preceding prefix committed.
func (c *Coordinator) ApplyBatch(b *core.Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	ops := make([]Op, 0, len(b.Ops))
	var unsupported error
	for i := range b.Ops {
		op, err := opFromMutation(&b.Ops[i])
		if err != nil {
			unsupported = err
			break
		}
		ops = append(ops, op)
	}
	if len(ops) > 0 {
		if committed, err := c.mutateBatch(ops); err != nil {
			return &core.BatchError{Index: committed, Err: err}
		}
	}
	if unsupported != nil {
		return &core.BatchError{Index: len(ops), Err: unsupported}
	}
	return nil
}

// applyMirror replays a committed op onto the coordinator's mirror graph,
// mimicking the engine's semantics (only improving additions insert).
func (c *Coordinator) applyMirror(op Op) {
	switch op.Kind {
	case core.MutEdgeAdd:
		for _, ed := range op.Edges {
			if w, ok := c.g.Weight(ed.U, ed.V); ok && w <= ed.W {
				continue
			}
			c.g.AddEdge(ed.U, ed.V, ed.W)
		}
	case core.MutEdgeDelete, core.MutEdgeDeleteEager:
		for _, p := range op.Pairs {
			c.g.RemoveEdge(p[0], p[1])
		}
	case core.MutSetWeight:
		for _, ed := range op.Edges {
			if c.g.HasEdge(ed.U, ed.V) {
				c.g.AddEdge(ed.U, ed.V, ed.W)
			}
		}
	}
}

// Converged reports the cluster consensus from the latest command.
func (c *Coordinator) Converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.converged
}

// StepCount returns the cluster's RC step count.
func (c *Coordinator) StepCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stepCount
}

// Graph returns the coordinator's mirror of the cluster graph.
func (c *Coordinator) Graph() graph.View { return c.g }

// Stats merges the per-worker cluster statistics: simulated parallel time is
// the slowest worker's, traffic totals add up.
func (c *Coordinator) Stats() cluster.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var st cluster.Stats
	for _, w := range c.ws {
		st = st.Merge(w.stats)
	}
	return st
}

// Distances gathers every worker's resident rows into one map. Rows from a
// worker that cannot be reached are served from its last report — the
// last-good-epoch reading the anytime property promises — and the worker is
// marked dead so the session degrades.
func (c *Coordinator) Distances() map[graph.ID][]int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	deadline := time.Now().Add(c.cfg.commandTimeout())
	for _, w := range c.ws {
		if !w.alive {
			continue
		}
		if err := w.cn.send(mReport, nil, deadline); err != nil {
			c.markDead(w, err.Error())
			continue
		}
		kind, body, err := w.cn.recv(deadline)
		if err != nil {
			c.markDead(w, err.Error())
			continue
		}
		if kind != mReportData {
			c.markDead(w, fmt.Sprintf("expected report data, got %s", msgName(kind)))
			continue
		}
		rows := make(map[graph.ID][]int32)
		if err := runtime.DecodeRows(body, rows); err != nil {
			c.markDead(w, err.Error())
			continue
		}
		w.rows = rows
	}
	all := make(map[graph.ID][]int32)
	live := 0
	for _, w := range c.ws {
		if w.alive {
			live++
		}
		for id, row := range w.rows {
			all[id] = row
		}
	}
	c.coordSpan("coord.collect", c.seq, start,
		fmt.Sprintf("%d rows from %d/%d live workers", len(all), live, len(c.ws)), nil)
	return all
}

// Workers returns the worker table for the observability endpoint.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	infos := make([]WorkerInfo, len(c.ws))
	for i, w := range c.ws {
		infos[i] = WorkerInfo{Index: w.index, Addr: w.meshAddr, Alive: w.alive, LastErr: w.lastErr}
	}
	return infos
}

// Close shuts the cluster down: every reachable worker is told to exit, all
// control connections and the listener close, and the rejoin loop stops.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.acceptDone
		return nil
	}
	c.closed = true
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range c.ws {
		if !w.alive {
			continue
		}
		w.cn.send(mShutdown, nil, deadline)
		w.cn.Close()
		w.alive = false
	}
	c.noteAlive()
	c.mu.Unlock()
	c.ln.Close()
	<-c.acceptDone
	return nil
}

// String identifies the coordinator in logs.
func (c *Coordinator) String() string {
	return "dist.Coordinator(" + c.ln.Addr().String() + ", workers=" + strconv.Itoa(len(c.ws)) + ")"
}
