// Package core implements the paper's primary contribution: the anytime
// anywhere algorithm for closeness centrality on large and dynamic graphs.
//
// The Engine executes the three phases of the anytime anywhere methodology
// on a simulated P-processor cluster:
//
//   - DD (domain decomposition): the input graph is partitioned into P
//     balanced, cut-minimising subgraphs (internal/partition).
//   - IA (initial approximation): each processor runs Dijkstra from every
//     local vertex over its local subgraph — local vertices plus external
//     boundary vertices acting as bridges — producing the initial distance
//     vectors (DVs).
//   - RC (recombination): iterative distance-vector-routing steps. Each step
//     exchanges the changed boundary DVs over the personalised all-to-all
//     schedule, relaxes local DVs through the received and locally-changed
//     rows, and applies recombination strategies (dynamic changes, processor
//     assignment, repartitioning) until a fixpoint.
//
// Anytime: distance estimates are monotonically non-increasing upper bounds
// between deletions, so Scores() may be read at any step and only improves.
// Anywhere: dynamic changes (edge additions/deletions, weight changes,
// vertex additions/deletions) are folded in between RC steps without
// restarting; see dynamic.go and strategies.go.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aacc/internal/centrality"
	"aacc/internal/cluster"
	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/partition"
	"aacc/internal/runtime"
	"aacc/internal/sparse"
	"aacc/internal/sssp"
)

// Options configures an Engine.
type Options struct {
	// P is the number of simulated processors (1..64; boundary-peer sets
	// are bitmasks). Default 16, the paper's processor count.
	P int
	// Partitioner performs the DD phase (and Repartition-S). Default
	// partition.Multilevel, the METIS-family substitute.
	Partitioner partition.Partitioner
	// Model prices communication; zero value uses logp.GigabitCluster(P),
	// modelled on the paper's 1 Gb/s testbed.
	Model logp.Params
	// Seed drives every randomised component (partitioner seeding).
	Seed int64
	// MaxSteps bounds a single Run call as a safety net. Default 8*P+n.
	MaxSteps int
	// Runtime selects the execution runtime the engine's phases run on
	// (internal/runtime). The zero value is runtime.Sim, the in-process
	// reference-passing cluster; runtime.WireTCP carries every
	// recombination exchange over a real TCP loopback mesh with the binary
	// wire codec, standing in for the paper's MPI-over-Ethernet, so
	// traffic accounting reflects measured frame bytes. Close the engine
	// to release runtime resources.
	Runtime runtime.Kind
	// RuntimeFactory, when non-nil, overrides Runtime: the engine calls it
	// exactly once at construction to build the runtime it will program
	// against. This is the plug point for custom backends (alternative
	// transports, multi-process runtimes); the factory's runtime must
	// round-trip the engine's exchange payloads (see WireCodec for the
	// serialised form). The engine takes ownership and Closes it.
	RuntimeFactory func(p int, model logp.Params) (runtime.Runtime, error)
	// Tracer, when set, observes every RC step and dynamic event (see
	// internal/trace for CSV/JSONL sinks). Tracer calls happen on the
	// orchestration goroutine, never concurrently.
	Tracer Tracer
	// Obs, when set, receives live metrics from every layer of the
	// analysis: the engine registers its per-phase step histograms and
	// step counters here, and the registry is propagated to the execution
	// runtime (traffic counters) and its transport (per-peer failure
	// counters) via runtime.Observable. Nil keeps the Step hot path
	// entirely metric-free — no timestamps, no atomics (see
	// internal/obs for the overhead rules).
	Obs *obs.Registry
	// Workers sets the intra-processor worker-pool size: the per-vertex
	// loops (IA Dijkstra, the install/relax scans, the edge-addition sweep,
	// the reseed sweeps of deletions, vertex additions, repartitioning and
	// failure recovery) are sharded across this many goroutines per
	// processor, each with its own scratch/heap arena. Default 1: the one
	// shard runs inline on the processor's goroutine; the CLI defaults to
	// runtime.GOMAXPROCS. Every pool size runs the same kernels, except that
	// relax updates rows in place with one worker and against frozen sources
	// with more. Shard assignment and merge order are fixed, so results are
	// deterministic at any worker count and bit-identical across worker
	// counts at every convergence point (see DESIGN.md §6, "Worker-pool
	// mode").
	Workers int
	// EagerLocalRefresh enables the paper's optional recombination
	// strategy of refreshing all local DVs against each other every RC
	// step (the Floyd–Warshall local update, O((n/P)²·n) here). It can
	// shave RC steps by propagating information within a processor
	// without waiting for the dirty-source machinery, at a large
	// per-step cost; the default incremental path reaches the same
	// fixpoint. Kept for fidelity and ablation.
	EagerLocalRefresh bool
}

func (o Options) withDefaults() Options {
	if o.P == 0 {
		o.P = 16
	}
	if o.Partitioner == nil {
		o.Partitioner = partition.Multilevel{Seed: o.Seed}
	}
	if o.Model == (logp.Params{}) {
		o.Model = logp.GigabitCluster(o.P)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Engine is one anytime anywhere closeness-centrality analysis.
type Engine struct {
	g    *graph.Graph
	opts Options
	rt   runtime.Runtime // the execution runtime all phases run on
	om   *engineObs      // live metrics, nil unless Options.Obs was set
	// spans is Options.Tracer's span sink, cached at construction (nil when
	// the tracer doesn't implement obs.SpanSink — the disabled path costs
	// one nil check per phase). rec is the registry's flight recorder.
	spans obs.SpanSink
	rec   *obs.Recorder
	// spanKey overrides the trace correlation key on emitted spans/events;
	// 0 (default) falls back to the step number. The dist worker sets the
	// cluster command seq here so worker-side engine phase spans line up
	// with the coordinator's timeline.
	spanKey uint64
	// partial is non-nil when the runtime hosts only a slice of the
	// processors in this process (a multi-process worker). Bookkeeping is
	// still built for all P processors — determinism requires the same
	// partition everywhere — but row data and query results exist only for
	// the resident ones.
	partial runtime.Partial
	owner   []int16 // vertex ID -> processor, -1 for dead vertices
	procs   []*proc
	width   int // current global ID-space size
	step    int
	conv    bool
	// workers is the intra-processor pool size (Options.Workers, >= 1).
	workers int
	// maskCache memoises peerMask per vertex (maskValid[v] gates it);
	// mutation paths that change a vertex's neighbourhood or ownership
	// invalidate the affected entries. During parallel phases each vertex's
	// mask is only computed by its owner, so the []bool writes never race.
	maskCache []uint64
	maskValid []bool
	// Pooled per-step phase buffers (the mail matrix and per-proc counters),
	// reused across Steps.
	mailMat     [][]*cluster.Mail
	rowsSentBuf []int
	changedBuf  []int
	// strategies are the per-processor recombination strategies run in the
	// strategies phase of every Step (the paper's "line 17" hook). Today
	// the eager-local-refresh ablation registers here; future strategies
	// join the same pipeline.
	strategies []stepStrategy
}

// stepStrategy is one per-processor recombination strategy invoked during
// the strategies phase of each RC step; it returns how many local rows it
// changed.
type stepStrategy func(e *Engine, pr *proc) int

// proc is the per-processor state: the local DV rows, snapshots of external
// boundary rows, and the dirty bookkeeping that drives delta propagation.
type proc struct {
	id    int
	local []graph.ID // sorted local vertex IDs
	store *dv.Store
	// ext holds the latest received snapshot of each external boundary
	// vertex's DV row (full receipts replace it; deltas patch it).
	ext map[graph.ID][]int32
	// extShared marks ext rows whose backing array may be shared with
	// other processors (full rows arrive as one copy shared across all
	// destinations); any mutation must copy-on-write first.
	extShared sparse.Bits
	// dirtySend: local rows changed since they were last sent.
	dirtySend sparse.Set
	// dirtySrc: local rows changed since last used as relaxation sources.
	dirtySrc sparse.Set
	// meta: per-row change tracking (which columns, full flags, which
	// peers hold an up-to-date snapshot).
	meta map[graph.ID]*rowState
	// extPending: snapshots changed since last used as relaxation
	// sources, with the changed columns (full=true for whole-row scans).
	// Entries are recycled through pendingPool.
	extPending map[graph.ID]*extPending
	// pendingRescan: row -> held sources whose distance column decreased
	// in a mutation outside relax; the DVR rescan rule fires next relax.
	// Empty in steady state (only mutation paths populate it).
	pendingRescan map[graph.ID]map[graph.ID]struct{}
	// isLocal[v] reports local ownership; sized to the engine width.
	isLocal []bool

	// Reusable relaxation scratch (see gatherSources/relaxRowSources).
	changedBuf []int32       // changed-column scratch, one row at a time
	rescanBuf  []graph.ID    // DVR rescan queue
	lastScan   sparse.I32Map // per-row last-scanned distance per source
	idBuf      []graph.ID    // sorted-ID scratch
	srcBuf     []relaxSource // gathered source list
	srcArena   []int32       // changed-column copies, lifetime = one relax
	sendArena  []int32       // outgoing delta cols+vals, lifetime = one step

	// rowPool recycles retired full-row arrays (replaced owned snapshots)
	// for newRowCopy; pendingPool recycles drained extPending entries.
	pendingPool []*extPending
	rowPool     [][]int32

	// Pooled outgoing-mail structures, reused across steps: mailBuf is the
	// per-destination mail slice handed to the exchange, mailCells/msgCells
	// the backing objects. Safe to reuse because a step's mail is consumed
	// in the same step's install phase (phases are barriers).
	mailBuf   []*cluster.Mail
	mailCells []cluster.Mail
	msgCells  []boundaryMsg

	// roundRows records the rows whose send-side bookkeeping the last
	// collect phase consumed, so a failed exchange can re-mark them dirty
	// (rollbackCollect) instead of silently dropping their updates. Reused
	// across steps.
	roundRows []graph.ID

	// ws are the per-worker scratch arenas of the intra-processor pool, one
	// per pool worker: the Dijkstra heap and distance row plus the shard's
	// change records. Sized by ensureWorkers, amortised across calls.
	ws []workerScratch
	// snapRows are pooled full-row value snapshots of local sources taken
	// for a frozen-source relax (shard workers must not read a row another
	// worker writes); recycled into rowPool at the end of each relax.
	snapRows [][]int32
}

// extPending records how a held snapshot changed since the last relax.
type extPending struct {
	cols sparse.Cols
	full bool
}

func (p *extPending) note(width int, cols []int32) {
	if p.full {
		return
	}
	if p.cols.Note(cols, width/colCap) {
		p.full = true
		p.cols.Release()
	}
}

// pendingFor returns (allocating or recycling) the extPending entry of v.
func (pr *proc) pendingFor(v graph.ID) *extPending {
	p := pr.extPending[v]
	if p == nil {
		if n := len(pr.pendingPool); n > 0 {
			p = pr.pendingPool[n-1]
			pr.pendingPool[n-1] = nil
			pr.pendingPool = pr.pendingPool[:n-1]
		} else {
			p = &extPending{}
		}
		pr.extPending[v] = p
	}
	return p
}

// newRowCopy returns a copy of src backed by a pooled array when available.
func (pr *proc) newRowCopy(src []int32) []int32 {
	for n := len(pr.rowPool); n > 0; n = len(pr.rowPool) {
		row := pr.rowPool[n-1]
		pr.rowPool[n-1] = nil
		pr.rowPool = pr.rowPool[:n-1]
		if cap(row) >= len(src) {
			row = row[:len(src)]
			copy(row, src)
			return row
		}
	}
	out := make([]int32, len(src))
	copy(out, src)
	return out
}

// recycleRow returns an owned (never shared) row array to the pool.
func (pr *proc) recycleRow(row []int32) {
	if row != nil {
		pr.rowPool = append(pr.rowPool, row)
	}
}

// boundaryMsg is the RC-step payload: for each changed boundary row either
// a full copy (first contact, post-deletion refresh) or the changed
// (column, value) pairs — the paper's "only the updated values of the
// boundary DVs".
type boundaryMsg struct {
	ids  []graph.ID
	full [][]int32 // full[i] != nil: complete row
	cols [][]int32 // else cols[i]/vals[i]: sparse delta
	vals [][]int32
}

func (m *boundaryMsg) add(v graph.ID, fullRow, cols, vals []int32) {
	m.ids = append(m.ids, v)
	m.full = append(m.full, fullRow)
	m.cols = append(m.cols, cols)
	m.vals = append(m.vals, vals)
}

// reset empties a pooled message for reuse, dropping row references so the
// pool does not pin installed snapshots.
func (m *boundaryMsg) reset() {
	m.ids = m.ids[:0]
	clear(m.full)
	m.full = m.full[:0]
	clear(m.cols)
	m.cols = m.cols[:0]
	clear(m.vals)
	m.vals = m.vals[:0]
}

func (m *boundaryMsg) bytes() int {
	b := 0
	for i := range m.ids {
		if m.full[i] != nil {
			b += 4 + 4*len(m.full[i])
		} else {
			b += 4 + 8*len(m.cols[i])
		}
	}
	return b
}

// newRuntime builds the execution runtime the options select: the factory
// when given, else the named built-in kind with the engine's binary codec.
func (o Options) newRuntime() (runtime.Runtime, error) {
	if o.RuntimeFactory != nil {
		return o.RuntimeFactory(o.P, o.Model)
	}
	return runtime.New(o.Runtime, o.P, o.Model, WireCodec{})
}

// New builds an engine over g (which the engine takes ownership of and
// mutates as dynamic changes are applied) and runs the DD and IA phases.
// The first RC step happens on the first call to Step or Run.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	e, err := newEngine(g, opts)
	if err != nil {
		return nil, err
	}
	e.initialize()
	return e, nil
}

// newEngine is the one engine constructor: it resolves the option defaults,
// builds the execution runtime and wires the observability sinks and the
// strategies pipeline. New follows it with DD and IA, LoadCheckpoint with the
// checkpointed assignment and rows.
func newEngine(g *graph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.P < 1 || opts.P > 64 {
		return nil, fmt.Errorf("core: P must be in [1,64], got %d", opts.P)
	}
	rt, err := opts.newRuntime()
	if err != nil {
		return nil, fmt.Errorf("core: building runtime: %w", err)
	}
	e := &Engine{
		g:       g,
		opts:    opts,
		rt:      rt,
		workers: opts.Workers,
	}
	if pa, ok := rt.(runtime.Partial); ok {
		e.partial = pa
	}
	e.spans = obs.SinkOf(opts.Tracer)
	e.rec = opts.Obs.Events()
	if opts.Obs != nil {
		e.om = newEngineObs(opts.Obs)
		e.om.workers.Set(float64(e.workers))
		if ob, ok := rt.(runtime.Observable); ok {
			ob.SetObs(opts.Obs)
		}
	}
	e.installStrategies()
	return e, nil
}

// installStrategies populates the strategies-phase pipeline from the
// options.
func (e *Engine) installStrategies() {
	if e.opts.EagerLocalRefresh {
		e.strategies = append(e.strategies, func(e *Engine, pr *proc) int {
			return pr.eagerLocalRefresh(e)
		})
	}
}

// Runtime returns the execution runtime this engine programs against.
func (e *Engine) Runtime() runtime.Runtime { return e.rt }

// Close releases the execution runtime's resources (e.g. the wire mesh).
// Safe to call on any engine; subsequent Steps on a wire engine will fail.
func (e *Engine) Close() error { return e.rt.Close() }

// initialize runs DD and IA from the engine's current graph, discarding any
// previous distance state. Reinitialize exposes it for the baseline-restart
// method.
func (e *Engine) initialize() {
	start := time.Now()
	assign := e.opts.Partitioner.Partition(e.g, e.opts.P)
	e.rt.AccountCompute(time.Since(start))

	e.width = e.g.NumIDs()
	e.owner = make([]int16, e.width)
	for i := range e.owner {
		e.owner[i] = -1
	}
	e.maskCache = make([]uint64, e.width)
	e.maskValid = make([]bool, e.width)
	e.mailMat, e.rowsSentBuf, e.changedBuf = nil, nil, nil
	for _, v := range e.g.Vertices() {
		e.owner[v] = int16(assign.Of(v))
	}
	e.procs = make([]*proc, e.opts.P)
	for p := 0; p < e.opts.P; p++ {
		e.procs[p] = newProc(p, e.width)
	}
	for _, v := range e.g.Vertices() {
		pr := e.procs[e.owner[v]]
		pr.local = append(pr.local, v)
		pr.isLocal[v] = true
	}
	// IA: local Dijkstra per local vertex over the local subgraph.
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		sort.Slice(pr.local, func(i, j int) bool { return pr.local[i] < pr.local[j] })
		// Store rows and bookkeeping are created in a sequential pre-pass
		// (map writes, sparse sets), then the Dijkstra sweeps — pure compute
		// into disjoint rows — run sharded over the worker pool.
		for _, v := range pr.local {
			pr.store.AddRow(v)
			// IA rows are sent whole, but are not relaxation sources:
			// local closure means they offer nothing to each other.
			pr.dirtySend.Add(v)
			pr.state(v).sendFull = true
		}
		pr.ensureWorkers(e)
		e.runShards(len(pr.local), e.shardImbIA(), func(w, lo, hi int) {
			ws := &pr.ws[w]
			for _, v := range pr.local[lo:hi] {
				sssp.DijkstraLocal(e.g, v, pr.isLocal, ws.scratch, ws.heap)
				copy(pr.store.Row(v), ws.scratch)
			}
		})
	})
	e.step = 0
	e.conv = false
}

// newProc creates an empty processor component sized to the global ID
// space. This is the start of the proc lifecycle: initialize and
// LoadCheckpoint build procs here, dynamic ops grow them (growTo), crash
// resets them wholesale, forgetFlow drops the exchange bookkeeping after a
// repartition, and retire removes individual vertices.
func newProc(id, width int) *proc {
	return &proc{
		id:            id,
		store:         dv.NewStore(width),
		ext:           make(map[graph.ID][]int32),
		meta:          make(map[graph.ID]*rowState),
		extPending:    make(map[graph.ID]*extPending),
		pendingRescan: make(map[graph.ID]map[graph.ID]struct{}),
		isLocal:       make([]bool, width),
	}
}

// crash drops everything the processor held — the DV store, snapshots and
// all flow bookkeeping — leaving only its vertex ownership (local/isLocal).
// FailProcessor uses it to simulate checkpoint-free processor loss.
func (pr *proc) crash(width int) {
	if pr.store.Width() != width {
		pr.store = dv.NewStore(width)
	} else {
		pr.store.Reset()
	}
	pr.forgetFlow()
}

// forgetFlow drops the processor's snapshots and exchange/relaxation
// bookkeeping while keeping its DV rows: used when boundary relationships
// change wholesale (repartitioning) or the state is rebuilt (crash).
func (pr *proc) forgetFlow() {
	clear(pr.ext)
	pr.extShared.Reset()
	pr.dropPending()
	clear(pr.pendingRescan)
	clear(pr.meta)
	pr.dirtySend.Clear()
	pr.dirtySrc.Clear()
}

// dropPending recycles and clears every extPending entry.
func (pr *proc) dropPending() {
	for _, p := range pr.extPending {
		p.cols.Reset()
		p.full = false
		pr.pendingPool = append(pr.pendingPool, p)
	}
	clear(pr.extPending)
}

// retire removes vertex v from this processor: the row and ownership if the
// processor owns it, plus any snapshot, pending work and the column (the
// distances *to* a removed vertex are no longer meaningful).
func (pr *proc) retire(v graph.ID, owned bool) {
	if owned {
		pr.store.DiscardRow(v)
		pr.isLocal[v] = false
		for i, x := range pr.local {
			if x == v {
				pr.local = append(pr.local[:i], pr.local[i+1:]...)
				break
			}
		}
		pr.dirtySend.Remove(v)
		pr.dirtySrc.Remove(v)
		delete(pr.meta, v)
	}
	if row, ok := pr.ext[v]; ok {
		delete(pr.ext, v)
		if !pr.extShared.Has(v) {
			pr.recycleRow(row)
		}
		pr.extShared.Clear(v)
	}
	if p, ok := pr.extPending[v]; ok {
		delete(pr.extPending, v)
		p.cols.Reset()
		p.full = false
		pr.pendingPool = append(pr.pendingPool, p)
	}
	delete(pr.pendingRescan, v)
	pr.store.ClearColumn(v)
}

// Tracer observes the engine's progress: one StepDone per RC step and one
// Event per dynamic operation. Implementations must not call back into the
// engine.
type Tracer interface {
	StepDone(rep StepReport, stats cluster.Stats)
	Event(kind, details string)
}

// trace emits a dynamic-operation event to the configured tracer.
func (e *Engine) trace(kind, format string, args ...any) {
	if e.opts.Tracer != nil {
		e.opts.Tracer.Event(kind, fmt.Sprintf(format, args...))
	}
}

// StepReport summarises one RC step.
type StepReport struct {
	Step         int
	MessagesSent int
	RowsSent     int
	RowsChanged  int
	Converged    bool
}

// ErrExchange tags step failures caused by the execution runtime's exchange
// (a wire transport that exhausted its retry budget, a frame that failed to
// decode). A step that fails with it left the engine state unchanged: the
// distance vectors, dirty-row bookkeeping and step count are exactly what
// they were before the call, and a later Step retries the same work.
var ErrExchange = errors.New("core: exchange failed")

// Step performs one recombination step through the four explicit phases of
// the RC pipeline — collect → exchange → install/relax → strategies — all
// running on the engine's execution runtime. Dynamic changes are applied
// between steps via ApplyBatch; the strategies phase mirrors the
// paper's recombination template where the strategy runs at line 17 of each
// iteration.
//
// A non-nil error (always wrapping ErrExchange) means the step did not
// happen: the exchange round was undeliverable, the collect phase's
// bookkeeping was rolled back (the affected rows are re-marked for a full
// resend, so the next successful round resynchronises every peer), and no
// distances changed. The in-memory runtime never fails; wire runtimes can.
func (e *Engine) Step() (StepReport, error) {
	om := e.om
	sp := e.spans
	timed := om != nil || sp != nil
	var t time.Time
	var key uint64
	if timed {
		t = time.Now()
		if key = e.spanKey; key == 0 {
			key = uint64(e.step + 1)
		}
	}
	mail, rowsSent := e.collectPhase()
	if timed {
		t = e.phaseDone(om.histCollect(), "engine.collect", key, t, nil)
	}
	in, err := e.exchangePhase(mail)
	if err != nil {
		e.rollbackCollect()
		if om != nil {
			om.stepFailures.Inc()
		}
		if timed {
			e.phaseDone(om.histExchange(), "engine.exchange", key, t, err)
		}
		e.rec.Record("core", "step-failure", key, fmt.Sprintf("step %d exchange failed: %v", e.step+1, err))
		e.trace("fault", "step %d exchange failed: %v", e.step+1, err)
		return StepReport{}, fmt.Errorf("%w: step %d: %w", ErrExchange, e.step+1, err)
	}
	e.step++
	if timed {
		t = e.phaseDone(om.histExchange(), "engine.exchange", key, t, nil)
	}
	changed := e.installRelaxPhase(in)
	if timed {
		t = e.phaseDone(om.histInstall(), "engine.install_relax", key, t, nil)
	}
	e.strategiesPhase(changed)
	if timed {
		e.phaseDone(om.histStrategies(), "engine.strategies", key, t, nil)
	}

	rep := StepReport{Step: e.step}
	for i := 0; i < e.opts.P; i++ {
		rep.RowsSent += rowsSent[i]
		rep.RowsChanged += changed[i]
		for _, m := range mail[i] {
			if m != nil {
				rep.MessagesSent++
			}
		}
	}
	e.conv = rep.MessagesSent == 0 && rep.RowsChanged == 0
	rep.Converged = e.conv
	if om != nil {
		om.stepDone(rep)
	}
	if e.opts.Tracer != nil {
		e.opts.Tracer.StepDone(rep, e.rt.Stats())
	}
	return rep, nil
}

// rollbackCollect undoes the send-side bookkeeping the collect phase
// consumed after the exchange failed to deliver it: every row that entered
// the failed round is re-marked dirty with a forced full resend. Full rows
// are the resync protocol — the failed round may have delivered frames to
// some peers before dying, and after a retried delta the sender could no
// longer tell which snapshot a peer actually holds; a full row is correct
// against any of them.
func (e *Engine) rollbackCollect() {
	e.rt.Parallel(func(i int) {
		pr := e.procs[i]
		for _, v := range pr.roundRows {
			st := pr.state(v)
			st.sendFull = true
			st.upToDate = 0
			st.sendCols.Release()
			pr.dirtySend.Add(v)
		}
		pr.roundRows = pr.roundRows[:0]
	})
}

// collectPhase gathers every processor's changed boundary rows into one
// outgoing mail matrix (mail[src][dst]) and reports per-processor row
// counts. The matrix and counters are pooled across steps.
func (e *Engine) collectPhase() (mail [][]*cluster.Mail, rowsSent []int) {
	p := e.opts.P
	if len(e.mailMat) != p {
		e.mailMat = make([][]*cluster.Mail, p)
		e.rowsSentBuf = make([]int, p)
		e.changedBuf = make([]int, p)
	}
	mail, rowsSent = e.mailMat, e.rowsSentBuf
	e.rt.Parallel(func(i int) {
		mail[i], rowsSent[i] = e.procs[i].collectMail(e)
	})
	return mail, rowsSent
}

// exchangePhase carries the personalised all-to-all over the execution
// runtime, returning the received mail indexed [dst][src]. A non-nil error
// means the round was not delivered and no mail may be installed.
func (e *Engine) exchangePhase(mail [][]*cluster.Mail) ([][]*cluster.Mail, error) {
	return e.rt.Exchange(mail)
}

// installRelaxPhase installs the received boundary updates on every
// processor and relaxes local rows through the changed sources, returning
// per-processor changed-row counts.
func (e *Engine) installRelaxPhase(in [][]*cluster.Mail) []int {
	changed := e.changedBuf
	e.rt.Parallel(func(i int) {
		changed[i] = e.procs[i].installAndRelax(e, in[i])
	})
	return changed
}

// strategiesPhase runs the registered per-processor recombination
// strategies (e.g. the eager-local-refresh ablation), accumulating their
// changed-row counts into changed.
func (e *Engine) strategiesPhase(changed []int) {
	if len(e.strategies) == 0 {
		return
	}
	e.rt.Parallel(func(i int) {
		for _, s := range e.strategies {
			changed[i] += s(e, e.procs[i])
		}
	})
}

// Run executes RC steps until convergence (a step that exchanged nothing
// and changed nothing) or until MaxSteps, returning the number of steps
// taken in this call. A step that fails (ErrExchange) aborts the run: the
// engine state is intact and Run may be called again to resume.
func (e *Engine) Run() (int, error) {
	max := e.opts.MaxSteps
	if max <= 0 {
		max = 8*e.opts.P + e.width + 16
	}
	steps := 0
	for !e.conv {
		if steps >= max {
			return steps, fmt.Errorf("core: no convergence after %d RC steps", steps)
		}
		if _, err := e.Step(); err != nil {
			return steps, err
		}
		steps++
	}
	return steps, nil
}

// Converged reports whether the last step reached the fixpoint. Dynamic
// changes clear it.
func (e *Engine) Converged() bool { return e.conv }

// StepCount returns the number of RC steps performed so far.
func (e *Engine) StepCount() int { return e.step }

// SetSpanKey sets the trace correlation key stamped on spans and
// flight-recorder events emitted by subsequent Step/ApplyBatch calls. The
// dist worker sets the cluster command seq before each command so
// worker-side engine spans line up with the coordinator's timeline; 0 (the
// default) falls back to the step number.
func (e *Engine) SetSpanKey(k uint64) { e.spanKey = k }

// SpanKey reports the current trace correlation key: the externally
// assigned key if set (see SetSpanKey), else the step count.
func (e *Engine) SpanKey() uint64 {
	if e.spanKey != 0 {
		return e.spanKey
	}
	return uint64(e.step)
}

// Graph returns a read-only view of the engine's live graph. The view always
// reflects the current graph (it is not a copy), but exposes no mutating
// methods: dynamic changes go through ApplyBatch (or an
// anytime.Session's mutation queue), and the baseline-restart protocol
// mutates a Clone of the view and hands it to ReinitializeFrom.
func (e *Engine) Graph() graph.View { return e.g }

// Owner returns the processor owning v, or -1.
func (e *Engine) Owner(v graph.ID) int {
	if int(v) >= len(e.owner) {
		return -1
	}
	return int(e.owner[v])
}

// Stats returns the execution runtime's accounting counters. The schema is
// identical across runtimes (sim and wire), so traces and experiment tables
// compare directly.
func (e *Engine) Stats() cluster.Stats { return e.rt.Stats() }

// Assignment returns the current vertex-to-processor assignment as a
// partition.Assignment (for cut/balance measurements).
func (e *Engine) Assignment() partition.Assignment {
	a := partition.NewAssignment(e.width, e.opts.P)
	for v, o := range e.owner {
		a.Part[v] = int(o)
	}
	return a
}

// P returns the number of simulated processors.
func (e *Engine) P() int { return e.opts.P }

// Workers returns the intra-processor worker-pool size (>= 1).
func (e *Engine) Workers() int { return e.workers }

// Reinitialize implements the paper's baseline-restart comparison method:
// it throws away all partial results and re-runs DD and IA on the current
// graph. Cumulative cluster statistics are preserved so restart cost
// accrues into the same totals.
func (e *Engine) Reinitialize() {
	e.initialize()
}

// ReinitializeFrom replaces the engine's graph with g — which the engine
// takes ownership of — and restarts the analysis on it: the baseline-restart
// protocol for mutated graphs. Callers obtain g by cloning Graph() and
// applying their raw edits to the copy; the engine's live graph is never
// mutated directly. Cumulative cluster statistics are preserved, as with
// Reinitialize.
func (e *Engine) ReinitializeFrom(g *graph.Graph) {
	e.g = g
	e.initialize()
}

// resident reports whether processor p's row data lives in this process.
// Always true outside multi-process deployments.
func (e *Engine) resident(p int) bool { return e.partial == nil || e.partial.Resident(p) }

// Partial reports whether this engine hosts only a slice of the processors
// (a multi-process worker). Queries cover the resident slice only, and
// whole-cluster operations (checkpointing, fault injection, repartitioning)
// are unavailable.
func (e *Engine) Partial() bool { return e.partial != nil }

// Distances returns a copy of every live vertex's current DV row, keyed by
// vertex ID. Between deletions the entries are monotonically non-increasing
// upper bounds; at convergence they equal true shortest-path distances. On a
// partial (worker) engine only resident processors' rows are returned.
func (e *Engine) Distances() map[graph.ID][]int32 {
	out := make(map[graph.ID][]int32, e.g.NumVertices())
	for _, pr := range e.procs {
		if !e.resident(pr.id) {
			continue
		}
		for _, v := range pr.local {
			out[v] = append([]int32(nil), pr.store.Row(v)...)
		}
	}
	return out
}

// Scores computes closeness centrality from the current (possibly partial)
// distance vectors — the engine's anytime read-out. Between RC steps the
// classic and harmonic scores only improve toward the exact values.
func (e *Engine) Scores() centrality.Scores {
	return centrality.FromDistances(e.Distances(), e.g.Vertices(), e.width)
}

// Distance returns the current estimate of d(u,v) (Inf if unknown, or if
// u's owner is not resident in this process).
func (e *Engine) Distance(u, v graph.ID) int32 {
	o := e.Owner(u)
	if o < 0 || !e.resident(o) {
		return dv.Inf
	}
	return e.procs[o].store.Get(u, v)
}

// ForceResend marks every resident local row for a full send to all its
// peers and clears the row's up-to-date bookkeeping, making the next RC
// steps re-ship complete state. The coordinator invokes it on every worker
// after one rejoins: the restarted process holds fresh IA rows plus replayed
// mutations, the survivors hold possibly-newer rows the newcomer has never
// seen, and a full re-send round restores the exchange invariant (everything
// a peer holds of mine is an upper bound I have since confirmed or
// improved). Convergence is reset; the subsequent steps run to the exact
// fixpoint.
func (e *Engine) ForceResend() {
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		for _, v := range pr.local {
			pr.noteRowFull(v)
		}
	})
	e.conv = false
}

// peerMask returns the bitmask of processors that have v as an external
// boundary vertex (processors owning a neighbour of v, other than v's own).
// Masks are cached per vertex; mutation paths invalidate affected entries
// (see invalidateMask/invalidateAllMasks). During parallel phases only v's
// owner computes v's mask, so the cache writes never race.
func (e *Engine) peerMask(v graph.ID) uint64 {
	if e.maskValid[v] {
		return e.maskCache[v]
	}
	own := e.owner[v]
	var mask uint64
	for _, ed := range e.g.Neighbors(v) {
		if o := e.owner[ed.To]; o >= 0 && o != own {
			mask |= 1 << uint(o)
		}
	}
	e.maskCache[v] = mask
	e.maskValid[v] = true
	return mask
}

// invalidateMask drops the cached peer mask of v (its neighbourhood or an
// endpoint's ownership changed).
func (e *Engine) invalidateMask(v graph.ID) {
	if int(v) < len(e.maskValid) {
		e.maskValid[v] = false
	}
}

// invalidateAllMasks drops every cached peer mask (ownership changed
// wholesale, e.g. repartitioning).
func (e *Engine) invalidateAllMasks() {
	clear(e.maskValid)
}

// collectMail gathers this processor's changed boundary rows into one
// message per peer processor. A peer holding an up-to-date snapshot gets
// only the changed (column, value) pairs; first contacts and forced
// refreshes get one shared read-only full copy (receivers copy-on-write
// before mutating, see extShared). Delta cols/vals live in the per-proc
// send arena, valid until the next collect; message and mail objects are
// pooled per destination.
func (pr *proc) collectMail(e *Engine) ([]*cluster.Mail, int) {
	if len(pr.mailBuf) != e.opts.P {
		pr.mailBuf = make([]*cluster.Mail, e.opts.P)
		pr.mailCells = make([]cluster.Mail, e.opts.P)
		pr.msgCells = make([]boundaryMsg, e.opts.P)
	}
	mail := pr.mailBuf
	clear(mail)
	pr.roundRows = pr.roundRows[:0]
	if pr.dirtySend.Len() == 0 {
		return mail, 0
	}
	pr.sendArena = pr.sendArena[:0]
	used := uint64(0) // destinations with a message this step
	rows := 0
	for _, id := range pr.dirtySend.Sorted() {
		v := graph.ID(id)
		mask := e.peerMask(v)
		st := pr.state(v)
		if mask == 0 {
			// No peers: nobody holds a snapshot, future peers get a
			// full row anyway.
			st.sendCols.Release()
			st.sendFull, st.upToDate = false, 0
			continue
		}
		pr.roundRows = append(pr.roundRows, v)
		row := pr.store.Row(v)
		var cols, vals []int32
		if !st.sendFull {
			cs := st.sendCols.Sorted()
			a := len(pr.sendArena)
			pr.sendArena = append(pr.sendArena, cs...)
			b := len(pr.sendArena)
			for _, c := range cs {
				pr.sendArena = append(pr.sendArena, row[c])
			}
			cols = pr.sendArena[a:b:b]
			vals = pr.sendArena[b:len(pr.sendArena):len(pr.sendArena)]
		}
		// One shared copy serves every destination needing the full row.
		var fullRow []int32
		if st.sendFull || st.upToDate&mask != mask {
			fullRow = pr.newRowCopy(row)
		}
		sent := false
		for dst, m := 0, mask; m != 0; dst++ {
			if m&(1<<uint(dst)) == 0 {
				continue
			}
			m &^= 1 << uint(dst)
			needFull := st.sendFull || st.upToDate&(1<<uint(dst)) == 0
			if !needFull && len(cols) == 0 {
				// Nothing to tell an up-to-date peer (a row can be dirty
				// with no column changes after repartitioning establishes
				// new peers); skip the empty delta.
				continue
			}
			sent = true
			msg := &pr.msgCells[dst]
			if used&(1<<uint(dst)) == 0 {
				used |= 1 << uint(dst)
				msg.reset()
			}
			if needFull {
				msg.add(v, fullRow, nil, nil)
			} else {
				msg.add(v, nil, cols, vals)
			}
		}
		if sent {
			rows++
		}
		st.upToDate = mask
		st.sendCols.Reset()
		st.sendFull = false
	}
	pr.dirtySend.Clear()
	for dst := 0; dst < e.opts.P; dst++ {
		if used&(1<<uint(dst)) == 0 {
			continue
		}
		m := &pr.msgCells[dst]
		pr.mailCells[dst] = cluster.Mail{Payload: m, Bytes: m.bytes()}
		mail[dst] = &pr.mailCells[dst]
	}
	return mail, rows
}

// installAndRelax applies the received boundary updates — full rows replace
// the snapshot, deltas patch it — and relaxes every local row through all
// changed rows (received snapshots and locally-changed rows). It returns
// how many local rows changed.
//
// Full rows arrive as one copy shared across every destination (and, on the
// sim runtime, by reference from the sender): they are installed as-is and
// marked shared, and any later mutation copies first. Replaced owned
// snapshots are recycled into the row pool.
func (pr *proc) installAndRelax(e *Engine, in []*cluster.Mail) int {
	for _, m := range in {
		if m == nil {
			continue
		}
		msg := m.Payload.(*boundaryMsg)
		for i, v := range msg.ids {
			if full := msg.full[i]; full != nil {
				if old, ok := pr.ext[v]; ok && !pr.extShared.Has(v) {
					pr.recycleRow(old)
				}
				pr.ext[v] = full
				pr.extShared.Set(v)
				p := pr.pendingFor(v)
				p.full = true
				p.cols.Release()
				continue
			}
			snap := pr.ext[v]
			if snap == nil {
				// Defensive: a delta without a snapshot (the owner
				// believed this peer up to date). Missing entries stay
				// Inf — sound upper bounds, refined by later sends.
				snap = pr.newRowInf(e, v)
				pr.ext[v] = snap
				pr.extShared.Clear(v)
			} else if pr.extShared.Has(v) {
				// Copy-on-write: the backing array may be read by other
				// processors holding the same shared full row.
				snap = pr.newRowCopy(snap)
				pr.ext[v] = snap
				pr.extShared.Clear(v)
			}
			cols, vals := msg.cols[i], msg.vals[i]
			for j, c := range cols {
				if int(c) < len(snap) {
					snap[c] = vals[j]
				}
			}
			pr.pendingFor(v).note(e.width, cols)
		}
	}
	return pr.relax(e)
}

// newRowInf returns a pooled width-sized row of Inf with row[v]=0.
func (pr *proc) newRowInf(e *Engine, v graph.ID) []int32 {
	var row []int32
	for n := len(pr.rowPool); n > 0; n = len(pr.rowPool) {
		r := pr.rowPool[n-1]
		pr.rowPool[n-1] = nil
		pr.rowPool = pr.rowPool[:n-1]
		if cap(r) >= e.width {
			row = r[:e.width]
			break
		}
	}
	if row == nil {
		row = make([]int32, e.width)
	}
	dv.FillInf(row)
	if int(v) < e.width {
		row[v] = 0
	}
	return row
}

func sortedIDs(set map[graph.ID]bool) []graph.ID {
	ids := make([]graph.ID, 0, len(set))
	for v := range set {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
