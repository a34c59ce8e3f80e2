// Package cli implements the command-line tools as testable functions: each
// cmd/* main is a thin wrapper around one function here that takes its
// argument list and output writers and returns an error. This keeps flag
// handling, graph loading and report formatting under test.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	goruntime "runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"aacc/internal/anytime"
	"aacc/internal/centrality"
	"aacc/internal/changelog"
	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/dist"
	"aacc/internal/experiments"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/metrics"
	"aacc/internal/obs"
	"aacc/internal/partition"
	"aacc/internal/runtime"
	"aacc/internal/transport"
	"aacc/internal/workload"
)

// newLogger builds the CLI's structured progress logger: a slog text handler
// on w at the named level (debug, info, warn, error), with timestamps
// suppressed so runs are diffable. Progress goes through this; the report
// itself (rankings, footer) stays plain fmt output.
func newLogger(w io.Writer, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	h := slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: lv,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	})
	return slog.New(h), nil
}

// LoadOrGenerate returns a graph from an edge-list file, or generates one
// with the named generator. Known generators: ba, er, ws, sbm, community,
// rmat.
func LoadOrGenerate(path, kind string, n int, seed int64, maxW int32) (*graph.Graph, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch {
		case strings.HasSuffix(path, ".net"):
			return graph.ReadPajek(f)
		case strings.HasSuffix(path, ".graph"), strings.HasSuffix(path, ".metis"):
			return graph.ReadMETIS(f)
		default:
			return graph.ReadEdgeList(f)
		}
	}
	cfg := gen.Config{MaxWeight: maxW}
	switch kind {
	case "ba":
		return gen.BarabasiAlbert(n, 2, seed, cfg), nil
	case "er":
		return gen.ErdosRenyiM(n, 3*n, seed, cfg), nil
	case "ws":
		return gen.WattsStrogatz(n, 3, 0.1, seed, cfg), nil
	case "sbm":
		return gen.PlantedPartition(n, 8, 0.1, 0.002, seed, cfg), nil
	case "community":
		g, _ := gen.CommunityScaleFree(n, n/100+2, 2, n/20+1, seed, cfg)
		return g, nil
	case "rmat":
		scale := 1
		for 1<<uint(scale) < n {
			scale++
		}
		return gen.RMAT(scale, 8, seed, cfg), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", kind)
	}
}

// PickPartitioner resolves a partitioner by name: multilevel, bfsgrow,
// roundrobin, hash.
func PickPartitioner(name string, seed int64) (partition.Partitioner, error) {
	switch name {
	case "multilevel":
		return partition.Multilevel{Seed: seed}, nil
	case "bfsgrow":
		return partition.BFSGrow{Seed: seed}, nil
	case "roundrobin":
		return partition.RoundRobin{}, nil
	case "hash":
		return partition.Hash{}, nil
	default:
		return nil, fmt.Errorf("unknown partitioner %q", name)
	}
}

// lockedWriter serialises writes to one writer: the progress logger, the
// report and a serve-mode ingest driver's goroutine all print to stdout.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// Analysis implements cmd/aacc.
func Analysis(args []string, stdout io.Writer) (err error) {
	stdout = &lockedWriter{w: stdout}
	fs := flag.NewFlagSet("aacc", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		n          = fs.Int("n", 2000, "vertices when generating a graph")
		p          = fs.Int("p", 16, "simulated processors (1-64)")
		seed       = fs.Int64("seed", 1, "random seed")
		genName    = fs.String("gen", "ba", "generator: ba, er, ws, sbm, community, rmat")
		graphPath  = fs.String("graph", "", "load an edge-list graph instead of generating")
		maxW       = fs.Int("maxw", 1, "maximum random edge weight")
		top        = fs.Int("top", 10, "how many top-central vertices to print")
		harmonic   = fs.Bool("harmonic", false, "rank by harmonic instead of classic closeness")
		anyFlag    = fs.Bool("anytime", false, "print per-step anytime progress")
		partName   = fs.String("partitioner", "multilevel", "DD partitioner: multilevel, bfsgrow, roundrobin, hash")
		changes    = fs.String("changes", "", "replay a change log (see internal/changelog) during the analysis")
		rtName     = fs.String("runtime", "sim", "execution runtime: sim (in-process) or tcp (boundary DVs over a real TCP loopback mesh)")
		faultRate  = fs.Float64("fault-rate", 0, "tcp runtime: inject deterministic wire faults (drops, delays, truncated/corrupt frames) on this fraction of exchange rounds, in [0,1)")
		faultSeed  = fs.Int64("fault-seed", 1, "seed for the deterministic fault-injection schedule")
		tracePath  = fs.String("trace", "", "write the span timeline (one JSON object per line) to this file")
		serve      = fs.Bool("serve", false, "run as an anytime session: the change log replays through the mutation queue while epoch snapshots are sampled concurrently")
		pubEvery   = fs.Int("publish-every", 1, "serve mode: publish a snapshot every k rc steps")
		stepBudget = fs.Int("step-budget", 0, "serve mode: stop stepping after this many rc steps (0 = unlimited)")
		deadline   = fs.Duration("deadline", 0, "serve mode: wall-clock stepping deadline (0 = none)")
		logLevel   = fs.String("log-level", "info", "progress log level: debug, info, warn, error")
		obsAddr    = fs.String("obs-addr", "", "listen address for the observability endpoint (/metrics, /healthz, /statusz, /debug/events, /debug/pprof) — any role, including workers and batch runs")
		linger     = fs.Duration("linger", 0, "keep the process (and observability endpoint) up this long after the analysis settles")
		role       = fs.String("role", "", "multi-process deployment role: coordinator or worker (default: single-process)")
		listenAddr = fs.String("listen", "", "coordinator: control listen address (required); worker: peer-mesh listen address (default 127.0.0.1:0)")
		coordAddr  = fs.String("coordinator", "", "worker: the coordinator's control address")
		poolSize   = fs.Int("workers", goruntime.GOMAXPROCS(0), "intra-processor worker-pool size: goroutines per processor for IA and the mutation sweeps; RC steps use one per processor, so add cores to them with -p (results are bit-identical at any value)")
		clusterW   = fs.Int("cluster-workers", 0, "coordinator: number of worker processes to admit before the analysis starts")
		roundTO    = fs.Duration("round-timeout", 30*time.Second, "multi-process: exchange round timeout dictated to the worker mesh")
		stepIv     = fs.Duration("step-interval", 0, "serve mode: idle this long between rc steps (throttles a live analysis)")
		ingestQ    = fs.Int("ingest-queue", 0, "serve mode: bound of the asynchronous mutation queue (0 = default)")
		ingestPol  = fs.String("ingest-policy", "block", "serve mode: backpressure on a full ingest queue: block or error (fail fast, ops are dropped)")
		ingestN    = fs.Int("ingest", 0, "serve mode: stream this many generated churn mutations through the ingest queue while the analysis runs")
		ingestRate = fs.Int("ingest-rate", 0, "serve mode: target mutations/sec for -ingest (0 = flat out)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(stdout, *logLevel)
	if err != nil {
		return err
	}
	if *linger > 0 && !*serve && *obsAddr == "" {
		return fmt.Errorf("-linger requires -serve or -obs-addr (it holds the process open for late scrapers)")
	}
	if *stepIv > 0 && !*serve {
		return fmt.Errorf("-step-interval requires -serve (batch mode steps flat out)")
	}
	if (*ingestQ != 0 || *ingestN != 0 || *ingestRate != 0) && !*serve {
		return fmt.Errorf("-ingest-queue/-ingest/-ingest-rate require -serve (the ingest pipeline is a session feature)")
	}
	if *ingestQ < 0 || *ingestN < 0 || *ingestRate < 0 {
		return fmt.Errorf("-ingest-queue, -ingest and -ingest-rate must be >= 0")
	}
	if *ingestRate > 0 && *ingestN == 0 {
		return fmt.Errorf("-ingest-rate requires -ingest (it paces the generated stream)")
	}
	var ingestPolicy anytime.QueuePolicy
	switch *ingestPol {
	case "block":
		ingestPolicy = anytime.BlockOnFull
	case "error":
		ingestPolicy = anytime.ErrorOnFull
	default:
		return fmt.Errorf("unknown -ingest-policy %q (want block or error)", *ingestPol)
	}
	switch *role {
	case "", "coordinator", "worker":
	default:
		return fmt.Errorf("unknown -role %q (want coordinator or worker)", *role)
	}
	if *role == "worker" {
		if *coordAddr == "" {
			return fmt.Errorf("-role worker requires -coordinator (the coordinator's control address)")
		}
		for flagName, set := range map[string]bool{
			"-serve": *serve, "-changes": *changes != "",
			"-anytime": *anyFlag, "-ingest": *ingestN > 0,
		} {
			if set {
				return fmt.Errorf("%s is a coordinator/single-process flag; a worker only hosts its partition", flagName)
			}
		}
	}
	if *role == "coordinator" {
		if *listenAddr == "" {
			return fmt.Errorf("-role coordinator requires -listen (the control address workers dial)")
		}
		if *clusterW < 1 {
			return fmt.Errorf("-role coordinator requires -cluster-workers >= 1")
		}
		if *changes != "" && !*serve {
			return fmt.Errorf("-changes on a coordinator requires -serve (batch replay drives a single-process engine)")
		}
	}
	if *role != "" && (*rtName != "sim" || *faultRate > 0) {
		return fmt.Errorf("-runtime/-fault-rate configure the single-process runtime; a multi-process deployment always exchanges over the worker mesh")
	}
	g, err := LoadOrGenerate(*graphPath, *genName, *n, *seed, int32(*maxW))
	if err != nil {
		return err
	}
	part, err := PickPartitioner(*partName, *seed)
	if err != nil {
		return err
	}
	rtKind, err := runtime.ParseKind(*rtName)
	if err != nil {
		return err
	}
	if *faultRate < 0 || *faultRate >= 1 {
		return fmt.Errorf("-fault-rate must be in [0,1), got %g", *faultRate)
	}
	if *faultRate > 0 && rtKind != runtime.WireTCP {
		return fmt.Errorf("-fault-rate requires -runtime tcp (faults are injected into the wire transport)")
	}
	logger.Info("graph ready", "vertices", g.NumVertices(), "edges", g.NumEdges(), "processors", *p)

	// -trace writes the span timeline. A trace that silently lost spans is
	// worse than no trace: a write error surfaces as the command's error once
	// the run itself succeeded.
	var tracer core.Tracer
	if *tracePath != "" {
		f, ferr := os.Create(*tracePath)
		if ferr != nil {
			return ferr
		}
		j := obs.NewJSONL(f)
		tracer = j
		defer func() {
			if terr := errors.Join(j.Err(), f.Close()); terr != nil && err == nil {
				err = fmt.Errorf("trace %s: %w", *tracePath, terr)
			}
		}()
	}
	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
	}

	if *poolSize < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", *poolSize)
	}
	if *role == "worker" {
		return workerRole(logger, g, part, *p, *seed, *poolSize, *listenAddr, *coordAddr, *roundTO, tracer, reg, *obsAddr, *linger)
	}

	var replayer *changelog.Replayer
	if *changes != "" {
		f, err := os.Open(*changes)
		if err != nil {
			return err
		}
		cl, err := changelog.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		replayer = changelog.NewReplayer(cl, &core.CutEdgePS{Seed: *seed})
		logger.Info("replaying change log", "batches", len(cl.Batches), "path", *changes)
	}

	eopts := core.Options{P: *p, Seed: *seed, Partitioner: part, Runtime: rtKind, Workers: *poolSize, Tracer: tracer, Obs: reg}
	if *faultRate > 0 {
		rate, fseed := *faultRate, *faultSeed
		eopts.RuntimeFactory = func(p int, model logp.Params) (runtime.Runtime, error) {
			mesh, err := transport.NewTCPLoopback(p)
			if err != nil {
				return nil, err
			}
			faulty := transport.NewFaulty(mesh, transport.FaultOptions{Rate: rate, Seed: fseed})
			return runtime.NewWire(p, model, core.WireCodec{}, faulty), nil
		}
		logger.Info("fault injection armed", "rate", rate, "seed", fseed)
	}

	// Coordinator role: the engine surface is a dist.Coordinator driving
	// worker processes over real sockets instead of an in-process core.Engine.
	var coord *dist.Coordinator
	var dep *deployment
	if *role == "coordinator" {
		ln, lerr := net.Listen("tcp", *listenAddr)
		if lerr != nil {
			return lerr
		}
		logger.Info("waiting for workers", "listen", ln.Addr(), "workers", *clusterW)
		coord, err = dist.NewCoordinator(ln, g, dist.Config{
			Workers:     *clusterW,
			P:           *p,
			Seed:        *seed,
			Partitioner: part.Name(),
			Transport:   transport.Config{RoundTimeout: *roundTO},
			Logger:      logger,
			Obs:         reg,
			Spans:       tracer,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		dep = &deployment{role: "coordinator", workers: coord.Workers}
	}
	// Batch modes serve the same observability endpoint as a session (with
	// the session-specific probes reduced to process/cluster state): up
	// before the first step, held open by -linger so one-shot runs stay
	// scrapable after they settle.
	if *obsAddr != "" && !*serve {
		addr, shutdown, oerr := startObsServer(*obsAddr, obsMux(reg, nil, dep))
		if oerr != nil {
			return oerr
		}
		defer func() {
			if *linger > 0 {
				logger.Info("lingering before shutdown", "duration", *linger)
				time.Sleep(*linger)
			}
			if serr := shutdown(); serr != nil {
				logger.Warn("observability endpoint shutdown", "err", serr)
			}
		}()
		logger.Info("observability endpoint up", "addr", addr)
	}
	wall := time.Now()
	var report centrality.TopKResult
	var sessionStats sessionSummary
	// Batch-mode retry bounds for undeliverable exchange rounds: a failed
	// Step leaves the engine state unchanged, so the one-shot CLI retries it
	// with doubling backoff like the session layer does, but gives up after
	// this many consecutive failures so a hard outage still terminates.
	const (
		stepRetryLimit   = 16
		stepRetryBackoff = 5 * time.Millisecond
		stepRetryMax     = 250 * time.Millisecond
	)
	retrySteps := func(logger *slog.Logger, e interface{ StepCount() int }, f func() error) error {
		backoff := stepRetryBackoff
		fails := 0
		for {
			before := e.StepCount()
			err := f()
			if err == nil || !errors.Is(err, core.ErrExchange) {
				return err
			}
			if e.StepCount() > before {
				fails, backoff = 0, stepRetryBackoff
			}
			if fails++; fails >= stepRetryLimit {
				return fmt.Errorf("%d consecutive undeliverable exchange rounds: %w", fails, err)
			}
			logger.Warn("exchange round failed; retrying", "consecutive", fails, "backoff", backoff, "err", err)
			time.Sleep(backoff)
			backoff = min(2*backoff, stepRetryMax)
		}
	}
	if *serve {
		sopts := anytime.Options{
			Engine:       eopts,
			PublishEvery: *pubEvery,
			StepBudget:   *stepBudget,
			Deadline:     *deadline,
			StepInterval: *stepIv,
			IngestQueue:  *ingestQ,
			IngestPolicy: ingestPolicy,
		}
		// The churn stream snapshots the base graph NOW — the session takes
		// ownership of g below.
		var ingest ingestDriver
		if *ingestN > 0 {
			churn := workload.NewChurn(g, int32(*maxW), *seed)
			ingest = sustainedIngest(logger, stdout, churn, *ingestN, *ingestRate)
		}
		build := func(ctx context.Context) (*anytime.Session, error) {
			if coord != nil {
				return anytime.NewWith(ctx, coord, sopts)
			}
			return anytime.New(ctx, g, sopts)
		}
		var final *anytime.Snapshot
		final, sessionStats, err = serveAnalysis(logger, build, replayer, ingest, reg, *obsAddr, *linger, dep)
		if err != nil {
			return err
		}
		// The same bound-based path /topk serves; on the final (usually
		// converged) snapshot it bit-matches the full-scan ranking.
		report = final.TopK(*top, *harmonic)
	} else if coord != nil {
		// Batch mode against the cluster: drive steps (with the same
		// degraded-round retry policy as single-process wire runs) until
		// every worker reports convergence.
		maxSteps := 8**p + g.NumIDs() + 16
		for !coord.Converged() {
			if coord.StepCount() >= maxSteps {
				return fmt.Errorf("cluster: no convergence after %d RC steps", coord.StepCount())
			}
			var rep core.StepReport
			if err := retrySteps(logger, coord, func() error {
				var err error
				rep, err = coord.Step()
				return err
			}); err != nil {
				return err
			}
			if *anyFlag {
				logger.Info("rc step", "step", rep.Step,
					"rows_sent", rep.RowsSent, "rows_changed", rep.RowsChanged)
			}
		}
		report = batchTopK(coord.Distances(), g, *top, *harmonic)
		sessionStats = sessionSummary{steps: coord.StepCount(), stats: coord.Stats()}
	} else {
		e, err := core.New(g, eopts)
		if err != nil {
			return err
		}
		defer e.Close()
		switch {
		case replayer != nil && *anyFlag:
			for !replayer.Done() || !e.Converged() {
				if err := retrySteps(logger, e, func() error { return replayer.Step(e) }); err != nil {
					return err
				}
				logger.Info("rc step", "step", e.StepCount(),
					"n", e.Graph().NumVertices(), "m", e.Graph().NumEdges())
			}
		case replayer != nil:
			if err := retrySteps(logger, e, func() error { return replayer.ReplayAll(e) }); err != nil {
				return err
			}
		case *anyFlag:
			for !e.Converged() {
				var rep core.StepReport
				if err := retrySteps(logger, e, func() error {
					var err error
					rep, err = e.Step()
					return err
				}); err != nil {
					return err
				}
				logger.Info("rc step", "step", rep.Step,
					"rows_sent", rep.RowsSent, "rows_changed", rep.RowsChanged)
			}
		default:
			if err := retrySteps(logger, e, func() error { _, err := e.Run(); return err }); err != nil {
				return err
			}
		}
		report = batchTopK(e.Distances(), e.Graph(), *top, *harmonic)
		load := metrics.Measure(e.Graph(), *p, func(v graph.ID) int { return e.Owner(v) })
		sessionStats = sessionSummary{
			steps:    e.StepCount(),
			stats:    e.Stats(),
			cut:      load.TotalCut,
			imbal:    load.VertexImbalance,
			haveLoad: true,
		}
	}

	kind := "closeness"
	if *harmonic {
		kind = "harmonic closeness"
	}
	// The header counts the entries actually returned (a small or sparse
	// graph can have fewer valid vertices than the requested -top).
	fmt.Fprintf(stdout, "\ntop %d by %s:\n", len(report.Entries), kind)
	for i, en := range report.Entries {
		mark := ""
		if !en.Resolved {
			// Only possible on a non-converged (interrupted/exhausted)
			// snapshot; converged output is identical to the full scan's.
			mark = fmt.Sprintf("  (contended: [%.6g, %.6g])", en.Lower, en.Upper)
		}
		fmt.Fprintf(stdout, "%3d. vertex %-8d %.6g%s\n", i+1, en.V, en.Score, mark)
	}

	st := sessionStats.stats
	fmt.Fprintf(stdout, "\nrc steps: %d   wall: %v\n", sessionStats.steps, time.Since(wall).Round(time.Millisecond))
	fmt.Fprintf(stdout, "simulated parallel time: %v (compute %v + comm %v)\n",
		st.SimTotal().Round(time.Microsecond), st.SimCompute.Round(time.Microsecond), st.SimComm.Round(time.Microsecond))
	if sessionStats.haveLoad {
		fmt.Fprintf(stdout, "traffic: %d messages, %.2f MB; cut edges: %d; vertex imbalance: %.3f\n",
			st.MessagesSent, float64(st.BytesSent)/(1<<20), sessionStats.cut, sessionStats.imbal)
	} else {
		fmt.Fprintf(stdout, "traffic: %d messages, %.2f MB\n",
			st.MessagesSent, float64(st.BytesSent)/(1<<20))
	}
	return nil
}

// batchTopK ranks a finished batch analysis through the same bound-based
// path the serving modes use: on complete rows every interval collapses, so
// the result bit-matches the full-scan centrality.TopK ranking.
func batchTopK(dist map[graph.ID][]int32, g graph.View, k int, harmonic bool) centrality.TopKResult {
	bs := centrality.NewBoundState(dist, g.Vertices(), g.NumIDs(), centrality.MinEdgeWeight(g))
	return bs.TopK(k, harmonic)
}

// sessionSummary carries the end-of-run statistics both analysis modes
// produce for the shared report footer.
type sessionSummary struct {
	steps    int
	stats    cluster.Stats
	cut      int
	imbal    float64
	haveLoad bool
}

// serveAnalysis runs the analysis as an anytime session: the change log (if
// any) replays through the serialized mutation queue on one goroutine while
// this goroutine samples and logs each published epoch — the session's
// concurrent readers and writers exercised end to end from the CLI. With an
// obsAddr the session also serves /metrics, /healthz, /statusz and pprof for
// its lifetime (plus linger, which holds the settled session open so late
// scrapers still see it). SIGINT/SIGTERM shut the session down gracefully:
// stepping drains, the last published epoch becomes the report, the
// observability endpoint closes, and the command exits cleanly.
// An ingestDriver streams mutations into a live session from its own
// goroutine; serveAnalysis waits for it (like the change-log replay) before
// taking the final converged snapshot.
type ingestDriver func(ctx context.Context, s *anytime.Session) error

// sustainedIngest returns a driver that pushes n generated churn mutations
// through the session's asynchronous ingest queue — optionally paced at rate
// mutations/sec — and reports the sustained throughput plus the worst
// snapshot staleness observed along the way.
func sustainedIngest(logger *slog.Logger, stdout io.Writer, churn *workload.Churn, n, rate int) ingestDriver {
	return func(ctx context.Context, s *anytime.Session) error {
		var tick *time.Ticker
		if rate > 0 {
			tick = time.NewTicker(time.Second / time.Duration(rate))
			defer tick.Stop()
		}
		var rejected int
		var maxAge time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			if tick != nil {
				select {
				case <-tick.C:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			m := churn.Next()
			switch err := s.Enqueue(m); {
			case err == nil:
			case errors.Is(err, anytime.ErrQueueFull):
				rejected++ // -ingest-policy error: drop and keep streaming
			default:
				return fmt.Errorf("ingest op %d (%s): %w", i, m.Kind, err)
			}
			if i%64 == 0 {
				if age := s.Snapshot().Age(); age > maxAge {
					maxAge = age
				}
			}
		}
		if err := s.Flush(ctx); err != nil {
			return fmt.Errorf("ingest flush: %w", err)
		}
		elapsed := time.Since(start)
		perSec := float64(n) / elapsed.Seconds()
		logger.Info("ingest stream drained", "ops", n, "rejected", rejected,
			"elapsed", elapsed.Round(time.Millisecond), "max_staleness", maxAge.Round(time.Millisecond))
		fmt.Fprintf(stdout, "sustained ingest: %d ops in %v (%.0f mutations/sec, %d rejected, max staleness %v)\n",
			n, elapsed.Round(time.Millisecond), perSec, rejected, maxAge.Round(time.Millisecond))
		return nil
	}
}

func serveAnalysis(logger *slog.Logger, build func(context.Context) (*anytime.Session, error), replayer *changelog.Replayer, ingest ingestDriver, reg *obs.Registry, obsAddr string, linger time.Duration, dep *deployment) (*anytime.Snapshot, sessionSummary, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s, err := build(ctx)
	if err != nil {
		return nil, sessionSummary{}, err
	}
	defer s.Close()
	// graceful turns a signal-cancelled wait into a clean exit on the last
	// published epoch — an interrupted anytime analysis is still an answer.
	graceful := func() (*anytime.Snapshot, sessionSummary, error) {
		logger.Info("signal received; draining session and shutting down")
		if cerr := s.Close(); cerr != nil {
			logger.Warn("session close", "err", cerr)
		}
		final := s.Snapshot()
		logger.Info("final epoch published", "epoch", final.Epoch, "step", final.Step)
		return final, sessionSummary{steps: final.Step, stats: final.Stats}, nil
	}
	if obsAddr != "" {
		addr, shutdown, err := startObsServer(obsAddr, obsMux(reg, s, dep))
		if err != nil {
			return nil, sessionSummary{}, err
		}
		defer func() {
			if serr := shutdown(); serr != nil {
				logger.Warn("observability endpoint shutdown", "err", serr)
			}
		}()
		logger.Info("observability endpoint up", "addr", addr)
	}

	replayErr := make(chan error, 1)
	go func() {
		if replayer == nil {
			replayErr <- nil
			return
		}
		replayErr <- s.Replay(ctx, replayer)
	}()
	ingestErr := make(chan error, 1)
	go func() {
		if ingest == nil {
			ingestErr <- nil
			return
		}
		ingestErr <- ingest(ctx, s)
	}()

	last := 0
	sample := func(sn *anytime.Snapshot) {
		if sn.Epoch <= last {
			return
		}
		last = sn.Epoch
		state := "running"
		switch {
		case sn.Converged:
			state = "converged"
		case sn.Degraded:
			state = "degraded"
		case sn.Exhausted:
			state = "exhausted"
		}
		if sn.Degraded {
			logger.Warn("epoch", "epoch", sn.Epoch, "step", sn.Step,
				"n", sn.NumVertices, "m", sn.NumEdges, "state", state, "fault", sn.Fault)
			return
		}
		logger.Info("epoch", "epoch", sn.Epoch, "step", sn.Step,
			"n", sn.NumVertices, "m", sn.NumEdges, "state", state)
	}
	for {
		sn, err := s.WaitFor(ctx, func(sn *anytime.Snapshot) bool { return sn.Epoch > last })
		if err != nil {
			if ctx.Err() != nil {
				return graceful()
			}
			return nil, sessionSummary{}, err
		}
		sample(sn)
		if sn.Converged || sn.Exhausted {
			break
		}
	}
	// The analysis settled; any batches still pending fire immediately now,
	// then the session settles again on the final graph.
	if err := <-replayErr; err != nil {
		if ctx.Err() != nil {
			return graceful()
		}
		return nil, sessionSummary{}, err
	}
	if err := <-ingestErr; err != nil {
		if ctx.Err() != nil {
			return graceful()
		}
		return nil, sessionSummary{}, err
	}
	final, err := s.Wait(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return graceful()
		}
		return nil, sessionSummary{}, err
	}
	sample(final)
	if linger > 0 {
		logger.Info("lingering before shutdown", "duration", linger)
		select {
		case <-ctx.Done():
			logger.Info("signal received; ending linger early")
		case <-time.After(linger):
		}
	}
	return final, sessionSummary{steps: final.Step, stats: final.Stats}, nil
}

// workerRole implements -role=worker: host one partition of the analysis,
// exchange boundary rows with peer workers directly, and follow the
// coordinator's commands until it says shutdown (clean exit) or the process
// receives SIGINT/SIGTERM (also a clean exit — the coordinator notices the
// dropped connection and degrades; a restarted worker rejoins and catches
// up from the replayed mutation log).
func workerRole(logger *slog.Logger, g *graph.Graph, part partition.Partitioner, p int, seed int64, poolWorkers int, listen, coordAddr string, roundTO time.Duration, tracer core.Tracer, reg *obs.Registry, obsAddr string, linger time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// A worker exposes the same endpoint shape as the coordinator, scoped to
	// its own process: engine/mesh metrics, its flight recorder, pprof.
	if obsAddr != "" {
		addr, shutdown, oerr := startObsServer(obsAddr, obsMux(reg, nil, &deployment{role: "worker"}))
		if oerr != nil {
			return oerr
		}
		defer func() {
			if linger > 0 {
				logger.Info("lingering before shutdown", "duration", linger)
				time.Sleep(linger)
			}
			if serr := shutdown(); serr != nil {
				logger.Warn("observability endpoint shutdown", "err", serr)
			}
		}()
		logger.Info("observability endpoint up", "addr", addr)
	}
	logger.Info("worker mesh endpoint up", "mesh", ln.Addr(), "coordinator", coordAddr)
	err = dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator:  coordAddr,
		MeshListener: ln,
		Graph:        g,
		P:            p,
		Seed:         seed,
		Partitioner:  part,
		PoolWorkers:  poolWorkers,
		Transport:    transport.Config{RoundTimeout: roundTO},
		Tracer:       tracer,
		Obs:          reg,
		Logger:       logger,
	})
	switch {
	case err == nil:
		logger.Info("worker shut down by coordinator")
		return nil
	case ctx.Err() != nil:
		logger.Info("worker shutting down on signal")
		return nil
	default:
		return err
	}
}

// Bench implements cmd/aacc-bench.
func Bench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aacc-bench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		list = fs.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		n    = fs.Int("n", 2000, "base graph size (paper: 50000)")
		p    = fs.Int("p", 16, "simulated processors")
		seed = fs.Int64("seed", 20160516, "random seed")
		maxW = fs.Int("maxw", 1, "maximum random edge weight")
		verb = fs.Bool("v", false, "print per-run progress")
		show = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *show {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-7s %s\n", id, experiments.Describe(id))
		}
		return nil
	}
	ids := experiments.IDs()
	if *list != "all" {
		ids = strings.Split(*list, ",")
	}
	cfg := experiments.Config{
		N:         *n,
		P:         *p,
		Seed:      *seed,
		MaxWeight: int32(*maxW),
		Verbose:   *verb,
		Out:       stdout,
	}
	start := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		fmt.Fprintf(stdout, "=== %s: %s\n", id, experiments.Describe(id))
		if _, err := experiments.Run(id, cfg); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "all experiments done in %v\n", time.Since(start).Round(time.Second))
	return nil
}

// GraphGen implements cmd/graphgen.
func GraphGen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind     = fs.String("type", "ba", "ba, er, ws, sbm, community, rmat, grid, star, path")
		n        = fs.Int("n", 1000, "number of vertices")
		m        = fs.Int("m", 2, "edges per vertex (ba), edge multiple (er), neighbours (ws)")
		k        = fs.Int("k", 8, "communities (sbm, community)")
		seed     = fs.Int64("seed", 1, "random seed")
		maxW     = fs.Int("maxw", 1, "maximum random edge weight")
		out      = fs.String("o", "", "output path (default stdout)")
		format   = fs.String("format", "edgelist", "edgelist, pajek or metis")
		logLevel = fs.String("log-level", "info", "progress log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(stderr, *logLevel)
	if err != nil {
		return err
	}
	cfg := gen.Config{MaxWeight: int32(*maxW)}
	var g *graph.Graph
	switch *kind {
	case "ba":
		g = gen.BarabasiAlbert(*n, *m, *seed, cfg)
	case "er":
		g = gen.ErdosRenyiM(*n, *m**n, *seed, cfg)
	case "ws":
		g = gen.WattsStrogatz(*n, *m, 0.1, *seed, cfg)
	case "sbm":
		g = gen.PlantedPartition(*n, *k, 0.1, 0.002, *seed, cfg)
	case "community":
		g, _ = gen.CommunityScaleFree(*n, *k, *m, *n/20+1, *seed, cfg)
	case "rmat":
		scale := 1
		for 1<<uint(scale) < *n {
			scale++
		}
		g = gen.RMAT(scale, *m*4, *seed, cfg)
	case "grid":
		g = gen.Grid(*n, *n, cfg)
	case "star":
		g = gen.Star(*n)
	case "path":
		g = gen.Path(*n)
	default:
		return fmt.Errorf("unknown graph type %q", *kind)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "edgelist":
		err = graph.WriteEdgeList(w, g)
	case "pajek":
		err = graph.WritePajek(w, g)
	case "metis":
		err = graph.WriteMETIS(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	logger.Info("graph written", "vertices", g.NumVertices(), "edges", g.NumEdges(), "format", *format)
	return nil
}

// PartBench implements cmd/partbench.
func PartBench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("partbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		n         = fs.Int("n", 10000, "vertices (scale-free generator)")
		p         = fs.Int("p", 16, "parts")
		seed      = fs.Int64("seed", 1, "random seed")
		graphPath = fs.String("graph", "", "load an edge-list graph instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *graph.Graph
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			return err
		}
		var rerr error
		g, rerr = graph.ReadEdgeList(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
	} else {
		g = gen.BarabasiAlbert(*n, 2, *seed, gen.Config{})
	}
	partitioners := []partition.Partitioner{
		partition.Multilevel{Seed: *seed},
		partition.BFSGrow{Seed: *seed},
		partition.RoundRobin{},
		partition.Hash{},
	}
	tab := metrics.Table{
		Title:   fmt.Sprintf("partitioners on %d vertices, %d edges, k=%d", g.NumVertices(), g.NumEdges(), *p),
		Columns: []string{"partitioner", "cut-edges", "cut-fraction", "imbalance", "time"},
	}
	for _, pt := range partitioners {
		start := time.Now()
		a := pt.Partition(g, *p)
		elapsed := time.Since(start)
		if err := a.Validate(g); err != nil {
			return fmt.Errorf("%s produced invalid assignment: %w", pt.Name(), err)
		}
		cut := a.CutEdges(g)
		tab.AddRow(
			pt.Name(),
			fmt.Sprintf("%d", cut),
			fmt.Sprintf("%.3f", float64(cut)/float64(g.NumEdges())),
			fmt.Sprintf("%.3f", a.Imbalance()),
			elapsed.Round(time.Microsecond).String(),
		)
	}
	return tab.Write(stdout)
}
