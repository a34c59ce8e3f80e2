package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	goruntime "runtime"
	"time"

	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/partition"
	"aacc/internal/runtime"
	"aacc/internal/transport"
)

// WorkerConfig parameterises one worker process. Graph, P, Seed and
// Partitioner must be the same inputs the coordinator was launched with:
// every process computes the deterministic partition independently and the
// coordinator refuses joiners whose parameters or graph fingerprint differ.
type WorkerConfig struct {
	// Coordinator is the coordinator's control address (host:port).
	Coordinator string
	// MeshListener is the worker's pre-bound peer-mesh listener; its address
	// is announced at join time and must be reachable by the other workers.
	MeshListener net.Listener
	// Graph is this process's independently loaded copy of the base graph.
	Graph *graph.Graph

	P           int
	Seed        int64
	Partitioner partition.Partitioner

	// PoolWorkers is the intra-process worker-pool size for this worker's
	// engine shard (core.Options.Workers). It is purely local compute
	// parallelism: results are bit-identical at any pool size, so workers in
	// one cluster may use different values and it is not part of the join
	// handshake.
	PoolWorkers int

	// Transport configures the peer mesh (the coordinator overrides
	// RoundTimeout so all workers agree on it).
	Transport transport.Config
	// DialTimeout bounds how long the worker retries dialing the
	// coordinator before giving up (default 30s). Workers usually start
	// before the coordinator's listener is up.
	DialTimeout time.Duration

	Obs    *obs.Registry
	Tracer core.Tracer
	Logger *slog.Logger
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	c.Transport = c.Transport.Normalize()
	if c.DialTimeout <= 0 {
		c.DialTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.Multilevel{Seed: c.Seed}
	}
	return c
}

// RunWorker joins the cluster at cfg.Coordinator and serves commands until
// the coordinator says shutdown (returns nil), the context is cancelled, or
// the control connection dies (returns the error). The caller restarts a
// failed worker by calling RunWorker again with the same mesh listener
// address — the coordinator replays the mutation log to rebuild its state.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Coordinator == "" {
		return fmt.Errorf("dist: worker needs a coordinator address")
	}
	if cfg.MeshListener == nil {
		return fmt.Errorf("dist: worker needs a bound mesh listener")
	}
	if cfg.Graph == nil {
		return fmt.Errorf("dist: worker needs a graph")
	}

	cn, err := dialCoordinator(ctx, cfg)
	if err != nil {
		return err
	}
	defer cn.Close()
	// Cancellation must unblock the zero-deadline command read and any mesh
	// wait, so it closes the sockets out from under them.
	stop := context.AfterFunc(ctx, func() { cn.Close() })
	defer stop()

	joinDL := time.Now().Add(cfg.DialTimeout)
	if err := cn.send(mJoin, joinBody{
		MeshAddr:    cfg.MeshListener.Addr().String(),
		Fingerprint: Fingerprint(cfg.Graph),
		P:           cfg.P,
		Seed:        cfg.Seed,
		Partitioner: cfg.Partitioner.Name(),
		N:           cfg.Graph.NumVertices(),
		M:           cfg.Graph.NumEdges(),
	}, joinDL); err != nil {
		return err
	}
	// The assign can be a long time coming: initial formation waits for the
	// full cluster, a rejoin waits for the coordinator mutex.
	var assign assignBody
	assignDL := time.Now().Add(2 * time.Minute)
	kind, body, err := cn.recv(assignDL)
	if err != nil {
		return fmt.Errorf("dist: waiting for assignment: %w", err)
	}
	switch kind {
	case mReject:
		var rej rejectBody
		if err := json.Unmarshal(body, &rej); err != nil {
			return fmt.Errorf("dist: join rejected (unreadable reason: %v)", err)
		}
		return fmt.Errorf("dist: join rejected: %s", rej.Reason)
	case mAssign:
		if err := json.Unmarshal(body, &assign); err != nil {
			return fmt.Errorf("dist: decoding assignment: %w", err)
		}
	default:
		return fmt.Errorf("dist: expected assignment, got %s", msgName(kind))
	}
	if rt := time.Duration(assign.RoundTimeoutMillis) * time.Millisecond; rt > 0 {
		cfg.Transport.RoundTimeout = rt
	}
	cfg.Logger.Info("assigned", "index", assign.Index, "lo", assign.Lo, "hi", assign.Hi,
		"workers", len(assign.Workers), "replay", len(assign.Replay))

	mesh, err := transport.NewPeerMesh(cfg.MeshListener, transport.PeerConfig{
		Self:   assign.Index,
		Addrs:  assign.Workers,
		Owner:  assign.Owner,
		Config: cfg.Transport,
	})
	if err != nil {
		return fmt.Errorf("dist: building peer mesh: %w", err)
	}
	if cfg.Obs != nil {
		mesh.SetObs(cfg.Obs)
	}
	stopMesh := context.AfterFunc(ctx, func() { mesh.Close() })
	defer stopMesh()

	var rrt *runtime.Remote
	eng, err := core.New(cfg.Graph, core.Options{
		P:           cfg.P,
		Seed:        cfg.Seed,
		Partitioner: cfg.Partitioner,
		Workers:     cfg.PoolWorkers,
		Tracer:      cfg.Tracer,
		Obs:         cfg.Obs,
		RuntimeFactory: func(p int, model logp.Params) (runtime.Runtime, error) {
			r, err := runtime.NewRemote(p, assign.Lo, assign.Hi, model, core.WireCodec{}, mesh)
			if err != nil {
				return nil, err
			}
			rrt = r
			return r, nil
		},
	})
	if err != nil {
		mesh.Close()
		return reportReady(cn, nil, nil, nil, fmt.Errorf("building engine: %w", err))
	}
	defer eng.Close() // closes the mesh through the runtime

	// Replay the coordinator's mutation log detached: this worker runs
	// alone, so endpoint-row broadcasts stay local, and its fresh engine is
	// not converged, so every deletion takes the row wipe, which needs no
	// rows from peers.
	rrt.SetDetached(true)
	var replayErr error
	if n, err := applyOps(eng, assign.Replay); err != nil {
		replayErr = fmt.Errorf("replaying the mutation log (%d of %d ops applied): %w", n, len(assign.Replay), err)
	}
	rrt.SetDetached(false)
	rrt.SetBaseSeq(assign.BaseSeq)

	// Every exchange votes through the coordinator: report the local
	// outcome, wait for the global verdict, roll back unless it commits.
	barrierDL := func() time.Time {
		return time.Now().Add(2*cfg.Transport.RoundTimeout + 30*time.Second)
	}
	rrt.SetBarrier(func(local error) error {
		st := statusBody{OK: local == nil}
		if local != nil {
			st.Err = local.Error()
		}
		if err := cn.send(mExchStatus, st, barrierDL()); err != nil {
			return fmt.Errorf("dist: reporting exchange status: %w", err)
		}
		var dec decisionBody
		if _, err := cn.expect(barrierDL(), &dec, mExchDecision); err != nil {
			return fmt.Errorf("dist: waiting for exchange verdict: %w", err)
		}
		if !dec.Commit {
			return fmt.Errorf("dist: exchange aborted by coordinator: %s", dec.Reason)
		}
		return nil
	})

	wt := &workerTelemetry{
		start:    time.Now(),
		cfg:      cfg,
		resident: assign.Hi - assign.Lo,
	}
	if err := reportReady(cn, eng, rrt, wt, replayErr); err != nil {
		return err
	}
	if replayErr != nil {
		return fmt.Errorf("dist: %w", replayErr)
	}
	cfg.Logger.Info("worker ready", "index", assign.Index)

	return serve(ctx, cfg, cn, eng, rrt, wt)
}

// workerTelemetry assembles the observability payload piggybacked on every
// command reply: the federated metric snapshot and the command's span.
type workerTelemetry struct {
	start    time.Time
	cfg      WorkerConfig
	resident int
}

// snapshot builds the compact metric snapshot the coordinator re-exports
// as aacc_cluster_worker_* families. Counter reads go through the
// registry's idempotent registration, so they see whatever the engine and
// mesh have accumulated; without a registry those report zero.
func (wt *workerTelemetry) snapshot() *wireMetrics {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	pool := wt.cfg.PoolWorkers
	if pool < 1 {
		pool = 1
	}
	wm := &wireMetrics{
		UptimeSeconds: time.Since(wt.start).Seconds(),
		HeapBytes:     ms.HeapAlloc,
		Goroutines:    goruntime.NumGoroutine(),
		PoolWorkers:   pool,
		ResidentProcs: wt.resident,
	}
	if reg := wt.cfg.Obs; reg != nil {
		wm.StepFailures = reg.Counter("aacc_engine_step_failures_total", "").Value()
		wm.WireRounds = reg.Counter("aacc_transport_wire_rounds_total", "").Value()
		wm.WireRoundFailures = reg.Counter("aacc_transport_wire_round_failures_total", "").Value()
		wm.WireRetries = reg.Counter("aacc_transport_retries_total", "").Value()
	}
	return wm
}

// commandSpan closes out one command's span: emitted into the worker's own
// trace (component "worker") and returned in wire form for the coordinator
// to relay under the shared command seq.
func (wt *workerTelemetry) commandSpan(name string, seq uint32, begin time.Time, cmdErr error) []wireSpan {
	d := time.Since(begin)
	ws := wireSpan{
		Name:           name,
		StartUnixMicro: begin.UnixMicro(),
		DurMicros:      d.Microseconds(),
	}
	if cmdErr != nil {
		ws.Err = cmdErr.Error()
	}
	if wt.cfg.Tracer != nil {
		wt.cfg.Tracer.Span(obs.Span{
			Trace:     uint64(seq),
			Component: "worker",
			Name:      name,
			Start:     begin,
			Dur:       d,
			Err:       ws.Err,
		})
	}
	return []wireSpan{ws}
}

// serve is the worker's command loop: block on the control connection, run
// each command against the local engine, answer with the outcome.
func serve(ctx context.Context, cfg WorkerConfig, cn *conn, eng *core.Engine, rrt *runtime.Remote, wt *workerTelemetry) error {
	for {
		kind, body, err := cn.recv(time.Time{})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: control connection lost: %w", err)
		}
		switch kind {
		case mStep:
			var cmd stepBody
			if err := json.Unmarshal(body, &cmd); err != nil {
				return fmt.Errorf("dist: decoding step: %w", err)
			}
			rrt.SetBaseSeq(cmd.Seq)
			eng.SetSpanKey(uint64(cmd.Seq))
			begin := time.Now()
			rep, stepErr := eng.Step()
			res := result(eng, rrt, wt, stepErr)
			res.Spans = wt.commandSpan("worker.step", cmd.Seq, begin, stepErr)
			res.RowsSent, res.RowsChanged, res.MessagesSent = rep.RowsSent, rep.RowsChanged, rep.MessagesSent
			if err := cn.send(mResult, res, sendDL(cfg)); err != nil {
				return err
			}
		case mMutate:
			var cmd mutateBody
			if err := json.Unmarshal(body, &cmd); err != nil {
				return fmt.Errorf("dist: decoding mutate: %w", err)
			}
			rrt.SetBaseSeq(cmd.Seq)
			rrt.SetConverged(cmd.Converged)
			eng.SetSpanKey(uint64(cmd.Seq))
			begin := time.Now()
			committed, opErr := applyOps(eng, cmd.Ops)
			res := result(eng, rrt, wt, opErr)
			res.Spans = wt.commandSpan("worker.mutate", cmd.Seq, begin, opErr)
			if opErr != nil {
				res.FailedOp = committed
			}
			if err := cn.send(mResult, res, sendDL(cfg)); err != nil {
				return err
			}
		case mResync:
			var cmd resyncBody
			if err := json.Unmarshal(body, &cmd); err != nil {
				return fmt.Errorf("dist: decoding resync: %w", err)
			}
			rrt.SetBaseSeq(cmd.Seq)
			eng.SetSpanKey(uint64(cmd.Seq))
			begin := time.Now()
			eng.ForceResend()
			res := result(eng, rrt, wt, nil)
			res.Spans = wt.commandSpan("worker.resync", cmd.Seq, begin, nil)
			if err := cn.send(mResult, res, sendDL(cfg)); err != nil {
				return err
			}
		case mReport:
			payload := runtime.EncodeRows(eng.Distances())
			if err := cn.sendRaw(mReportData, payload, sendDL(cfg)); err != nil {
				return err
			}
		case mShutdown:
			cfg.Logger.Info("shutdown requested")
			return nil
		default:
			return fmt.Errorf("dist: unexpected %s command", msgName(kind))
		}
	}
}

func sendDL(cfg WorkerConfig) time.Time { return time.Now().Add(30 * time.Second) }

// result summarises the engine state after a command for the coordinator's
// consensus check, plus the worker's piggybacked metric snapshot.
func result(eng *core.Engine, rrt *runtime.Remote, wt *workerTelemetry, opErr error) resultBody {
	g := eng.Graph()
	res := resultBody{
		NextSeq:   rrt.NextSeq(),
		Step:      eng.StepCount(),
		Converged: eng.Converged(),
		N:         g.NumVertices(),
		M:         g.NumEdges(),
		Stats:     eng.Stats(),
		Metrics:   wt.snapshot(),
	}
	if opErr != nil {
		res.Err = opErr.Error()
	}
	return res
}

// reportReady answers the assignment with mReady. A nil engine means the
// build itself failed; the coordinator sees the error and gives up on us.
func reportReady(cn *conn, eng *core.Engine, rrt *runtime.Remote, wt *workerTelemetry, buildErr error) error {
	res := resultBody{}
	if eng != nil {
		res = result(eng, rrt, wt, buildErr)
	} else if buildErr != nil {
		res.Err = buildErr.Error()
	}
	if err := cn.send(mReady, res, time.Now().Add(30*time.Second)); err != nil {
		return err
	}
	if eng == nil && buildErr != nil {
		return fmt.Errorf("dist: %w", buildErr)
	}
	return nil
}

// applyOps applies decoded wire ops through the engine's one mutation entry
// point and reports how many committed. The batch is validated here first so
// the two failure shapes stay distinguishable on the wire: a structurally
// invalid op rejects the whole batch with nothing applied (0 committed),
// while an op that fails while applying leaves exactly the ops before it
// committed.
func applyOps(eng *core.Engine, ops []Op) (int, error) {
	b := batchOf(ops)
	if err := b.Validate(); err != nil {
		return 0, err
	}
	err := eng.ApplyBatch(b)
	var be *core.BatchError
	if errors.As(err, &be) {
		return be.Index, be.Err
	}
	return len(ops), err
}

// dialCoordinator dials the control connection, retrying until DialTimeout:
// in a normal deployment the workers and the coordinator race to start, and
// a rejoining worker may beat the coordinator's notice of the old death.
func dialCoordinator(ctx context.Context, cfg WorkerConfig) (*conn, error) {
	deadline := time.Now().Add(cfg.DialTimeout)
	var lastErr error
	for {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: dialing coordinator %s: %w", cfg.Coordinator, lastErr)
		}
		d := net.Dialer{Timeout: time.Until(deadline)}
		raw, err := d.DialContext(ctx, "tcp", cfg.Coordinator)
		if err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if err := transport.DialHello(raw, 0, time.Now().Add(10*time.Second)); err != nil {
			raw.Close()
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		return newConn(raw, cfg.Transport.MaxFrame), nil
	}
}
