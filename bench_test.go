// Benchmarks regenerating each figure of the paper's evaluation at bench
// scale (one benchmark per figure plus ablations for the design choices
// DESIGN.md calls out). Run with:
//
//	go test -bench=. -benchmem
//
// For the full-scale tables use cmd/aacc-bench instead; these benches keep
// each iteration small so the harness converges quickly.
package aacc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"aacc/internal/anytime"
	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/partition"
	"aacc/internal/runtime"
	"aacc/internal/sssp"
	"aacc/internal/trace"
	"aacc/internal/workload"
)

const (
	benchN    = 600
	benchP    = 8
	benchSeed = 42
)

func benchAddition(b *testing.B, x int) *workload.Addition {
	b.Helper()
	add, err := workload.ExtractAddition(benchN, x, benchSeed, gen.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return add
}

func benchEngine(b *testing.B, g *graph.Graph) *core.Engine {
	b.Helper()
	return benchEngineWorkers(b, g, 1)
}

func benchEngineWorkers(b *testing.B, g *graph.Graph, workers int) *core.Engine {
	b.Helper()
	e, err := core.New(g, core.Options{P: benchP, Seed: benchSeed, Partitioner: partition.Multilevel{Seed: benchSeed}, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchWorkerCounts is the cores-scaling series the worker-pool benchmarks
// sweep; scripts/bench_baseline.sh records the host's usable cores next to
// the results so a 1-CPU run's flat curve is interpretable.
var benchWorkerCounts = []int{1, 2, 4, 8}

func mustRun(b *testing.B, e *core.Engine) {
	b.Helper()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// mustApply runs one mutation through the engine's single entry point and
// returns it with its result fields filled in.
func mustApply(b *testing.B, e *core.Engine, m core.Mutation) core.Mutation {
	b.Helper()
	batch := &core.Batch{Ops: []core.Mutation{m}}
	if err := e.ApplyBatch(batch); err != nil {
		b.Fatal(err)
	}
	return batch.Ops[0]
}

// BenchmarkFig4 measures one Figure-4 cell: a scaled vertex-addition batch
// injected at RC4, anytime (RoundRobin-PS) vs baseline restart.
func BenchmarkFig4(b *testing.B) {
	add := benchAddition(b, 16)
	b.Run("AnytimeRoundRobin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEngine(b, add.Base.Clone())
			for s := 0; s < 4 && !e.Converged(); s++ {
				e.Step()
			}
			mustApply(b, e, core.VertexAdd(add.Batch.Clone(), &core.RoundRobinPS{}))
			mustRun(b, e)
		}
	})
	b.Run("BaselineRestart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEngine(b, add.Base.Clone())
			mustRun(b, e)
			g2 := e.Graph().Clone()
			first := g2.AddVertices(add.Batch.Count)
			for _, ed := range add.Batch.Internal {
				g2.AddEdge(first+graph.ID(ed.A), first+graph.ID(ed.B), ed.W)
			}
			for _, ed := range add.Batch.External {
				g2.AddEdge(first+graph.ID(ed.New), ed.To, ed.W)
			}
			e.ReinitializeFrom(g2)
			mustRun(b, e)
		}
	})
}

// benchStrategy measures one Figure-5/6 cell: a batch injected at the given
// RC step under one strategy.
func benchStrategy(b *testing.B, strategy string, injectAt int) {
	add := benchAddition(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := benchEngine(b, add.Base.Clone())
		for s := 0; s < injectAt && !e.Converged(); s++ {
			e.Step()
		}
		switch strategy {
		case "rr":
			mustApply(b, e, core.VertexAdd(add.Batch.Clone(), &core.RoundRobinPS{}))
		case "ce":
			mustApply(b, e, core.VertexAdd(add.Batch.Clone(), &core.CutEdgePS{Seed: benchSeed}))
		case "rep":
			mustApply(b, e, core.RepartitionOp(add.Batch.Clone()))
		}
		mustRun(b, e)
	}
}

// BenchmarkFig5 covers the three strategies at RC0 (Figure 5).
func BenchmarkFig5(b *testing.B) {
	b.Run("RoundRobinPS", func(b *testing.B) { benchStrategy(b, "rr", 0) })
	b.Run("CutEdgePS", func(b *testing.B) { benchStrategy(b, "ce", 0) })
	b.Run("RepartitionS", func(b *testing.B) { benchStrategy(b, "rep", 0) })
}

// BenchmarkFig6 covers the three strategies at RC8 (Figure 6).
func BenchmarkFig6(b *testing.B) {
	b.Run("RoundRobinPS", func(b *testing.B) { benchStrategy(b, "rr", 8) })
	b.Run("CutEdgePS", func(b *testing.B) { benchStrategy(b, "ce", 8) })
	b.Run("RepartitionS", func(b *testing.B) { benchStrategy(b, "rep", 8) })
}

// BenchmarkFig7 measures the new-cut-edge accounting of Figure 7 (the
// placement itself plus the cut measurement).
func BenchmarkFig7(b *testing.B) {
	add := benchAddition(b, 60)
	e := benchEngine(b, add.Base.Clone())
	mustRun(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Assignment().CutEdges(e.Graph())
	}
}

// BenchmarkFig8 measures one Figure-8 cell: incremental additions spread
// over 5 injections, per strategy.
func BenchmarkFig8(b *testing.B) {
	add := benchAddition(b, 40)
	run := func(b *testing.B, method string) {
		for i := 0; i < b.N; i++ {
			e := benchEngine(b, add.Base.Clone())
			inc := workload.NewIncremental(add.Batch, 5)
			rr := &core.RoundRobinPS{}
			for inc.Remaining() > 0 {
				e.Step()
				chunk := inc.Next()
				switch method {
				case "restart":
					g2 := e.Graph().Clone()
					first := g2.AddVertices(chunk.Count)
					ids := make([]graph.ID, chunk.Count)
					for j := range ids {
						ids[j] = first + graph.ID(j)
					}
					for _, ed := range chunk.Internal {
						g2.AddEdge(ids[ed.A], ids[ed.B], ed.W)
					}
					for _, ed := range chunk.External {
						g2.AddEdge(ids[ed.New], ed.To, ed.W)
					}
					inc.NoteIDs(ids)
					e.ReinitializeFrom(g2)
					mustRun(b, e)
				case "rr":
					inc.NoteIDs(mustApply(b, e, core.VertexAdd(chunk, rr)).AssignedIDs)
				case "rep":
					inc.NoteIDs(mustApply(b, e, core.RepartitionOp(chunk)).Repart.NewIDs)
				}
			}
			mustRun(b, e)
		}
	}
	b.Run("BaselineRestart", func(b *testing.B) { run(b, "restart") })
	b.Run("RoundRobinPS", func(b *testing.B) { run(b, "rr") })
	b.Run("RepartitionS", func(b *testing.B) { run(b, "rep") })
}

// BenchmarkEA1 measures the titled paper's edge-addition cell: a batch of
// new edges folded into a converged analysis vs restart.
func BenchmarkEA1(b *testing.B) {
	base := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	adds := workload.RandomEdgeAdditions(base, 24, 1, benchSeed)
	b.Run("Anytime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEngine(b, base.Clone())
			mustRun(b, e)
			mustApply(b, e, core.EdgeAdd(adds...))
			mustRun(b, e)
		}
	})
	b.Run("Restart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEngine(b, base.Clone())
			mustRun(b, e)
			g2 := e.Graph().Clone()
			for _, ed := range adds {
				g2.AddEdge(ed.U, ed.V, ed.W)
			}
			e.ReinitializeFrom(g2)
			mustRun(b, e)
		}
	})
}

// BenchmarkED1 measures the titled paper's edge-deletion cell.
func BenchmarkED1(b *testing.B) {
	base := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	dels := workload.RandomEdgeDeletions(base, 24, benchSeed)
	b.Run("Anytime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEngine(b, base.Clone())
			mustRun(b, e)
			mustApply(b, e, core.EdgeDelete(dels...))
			mustRun(b, e)
		}
	})
	b.Run("Restart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := benchEngine(b, base.Clone())
			mustRun(b, e)
			g2 := e.Graph().Clone()
			for _, d := range dels {
				g2.RemoveEdge(d[0], d[1])
			}
			e.ReinitializeFrom(g2)
			mustRun(b, e)
		}
	})
}

// BenchmarkED2 measures the deletion sweep's per-edge invalidation cost at a
// larger batch (2% of edges).
func BenchmarkED2(b *testing.B) {
	base := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	dels := workload.RandomEdgeDeletions(base, base.NumEdges()/50, benchSeed)
	for i := 0; i < b.N; i++ {
		e := benchEngine(b, base.Clone())
		mustRun(b, e)
		mustApply(b, e, core.EdgeDelete(dels...))
		mustRun(b, e)
	}
}

// BenchmarkQual1 measures the anytime read-out (Scores on partial state),
// which must stay cheap enough to call after every RC step.
func BenchmarkQual1(b *testing.B) {
	e := benchEngine(b, gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{}))
	e.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Scores()
	}
}

// BenchmarkLogP1 measures the analytic model evaluation (LOGP-1).
func BenchmarkLogP1(b *testing.B) {
	p := logp.GigabitCluster(16)
	for i := 0; i < b.N; i++ {
		_ = p.StaticAnalysis(50000, 3000, 8, 1e-9)
	}
}

// --- ablation benches for DESIGN.md's design choices ---

// BenchmarkAblationIAPhase isolates the initial-approximation phase.
func BenchmarkAblationIAPhase(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	for i := 0; i < b.N; i++ {
		_ = benchEngine(b, g.Clone()) // New runs DD + IA
	}
	b.ReportMetric(float64(g.NumVertices())*float64(b.N)/b.Elapsed().Seconds(), "vertices/sec")
}

// BenchmarkIAParallel sweeps the worker pool over the IA phase (one local
// Dijkstra per vertex — the embarrassingly parallel end of the engine).
func BenchmarkIAParallel(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = benchEngineWorkers(b, g.Clone(), w)
			}
			b.ReportMetric(float64(g.NumVertices())*float64(b.N)/b.Elapsed().Seconds(), "vertices/sec")
		})
	}
}

// BenchmarkInstallRelaxParallel sweeps the worker pool over the first
// (heaviest) RC step, whose cost is dominated by the install/relax phase.
func BenchmarkInstallRelaxParallel(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := benchEngineWorkers(b, g.Clone(), w)
				b.StartTimer()
				e.Step()
			}
		})
	}
}

// BenchmarkFig4Workers sweeps the worker pool over the full Figure-4 anytime
// cell (IA + partial steps + vertex addition + reconvergence), the end-to-end
// cores-scaling series the baseline records.
func BenchmarkFig4Workers(b *testing.B) {
	add := benchAddition(b, 16)
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := benchEngineWorkers(b, add.Base.Clone(), w)
				for s := 0; s < 4 && !e.Converged(); s++ {
					e.Step()
				}
				mustApply(b, e, core.VertexAdd(add.Batch.Clone(), &core.RoundRobinPS{}))
				mustRun(b, e)
			}
		})
	}
}

// BenchmarkAblationRCStep isolates the first (heaviest) recombination step.
func BenchmarkAblationRCStep(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, g.Clone())
		b.StartTimer()
		e.Step()
	}
}

// BenchmarkAblationDVGrow measures the amortised-doubling column growth the
// paper's vertex-addition analysis charges O(x·n) for.
func BenchmarkAblationDVGrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := dv.NewStore(benchN)
		for v := 0; v < benchN/benchP; v++ {
			s.AddRow(int32(v))
		}
		b.StartTimer()
		for w := benchN + 1; w <= benchN+64; w++ {
			s.Grow(w)
		}
	}
}

// BenchmarkAblationFWRefresh measures the optional local Floyd–Warshall
// refresh (O((n/P)^3) per step in the paper's analysis) against the
// boundary-relaxation path the engine uses by default.
func BenchmarkAblationFWRefresh(b *testing.B) {
	n := benchN / benchP
	block := make([][]int32, n)
	for i := range block {
		block[i] = make([]int32, n)
		for j := range block[i] {
			if i != j {
				block[i][j] = sssp.Inf
			}
		}
	}
	g := gen.BarabasiAlbert(n, 2, benchSeed, gen.Config{})
	for _, e := range g.Edges() {
		block[e.U][e.V] = e.W
		block[e.V][e.U] = e.W
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]int32, n)
		for j := range block {
			work[j] = append([]int32(nil), block[j]...)
		}
		sssp.FloydWarshallLocal(work)
	}
}

// BenchmarkAblationSchedule compares the paper's one-message-at-a-time
// personalised all-to-all against the naive concurrent flood in the LogP
// model.
func BenchmarkAblationSchedule(b *testing.B) {
	p := logp.GigabitCluster(16)
	sizes := make([][]int, 16)
	for i := range sizes {
		sizes[i] = make([]int, 16)
		for j := range sizes[i] {
			if i != j {
				sizes[i][j] = 64 << 10
			}
		}
	}
	b.Run("PersonalisedSchedule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.AllToAllTime(sizes)
		}
	})
	b.Run("NaiveFlood", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.FloodAllToAllTime(sizes)
		}
	})
}

// BenchmarkAblationWire compares one converged analysis over the in-memory
// exchange vs the real TCP loopback wire (serialisation + kernel sockets).
func BenchmarkAblationWire(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	run := func(b *testing.B, rt runtime.Kind) {
		for i := 0; i < b.N; i++ {
			e, err := core.New(g.Clone(), core.Options{P: benchP, Seed: benchSeed, Runtime: rt})
			if err != nil {
				b.Fatal(err)
			}
			mustRun(b, e)
			e.Close()
		}
	}
	b.Run("InMemory", func(b *testing.B) { run(b, runtime.Sim) })
	b.Run("TCPWire", func(b *testing.B) { run(b, runtime.WireTCP) })
}

// BenchmarkAblationCheckpoint measures checkpoint serialisation and restore.
func BenchmarkAblationCheckpoint(b *testing.B) {
	e := benchEngine(b, gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{}))
	mustRun(b, e)
	b.Run("Write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := e.WriteCheckpoint(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LoadCheckpoint(bytes.NewReader(data), core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSNAMeasures covers the point-to-point distance queries built
// around the engine.
func BenchmarkSNAMeasures(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{MaxWeight: 3})
	b.Run("BidirectionalQuery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sssp.BidirectionalDijkstra(g, 0, graph.ID(benchN-1))
		}
	})
	b.Run("FullDijkstraQuery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sssp.Dijkstra(g, 0)[benchN-1]
		}
	})
}

// BenchmarkAblationPartitioners compares DD partitioners at engine scale
// (cut quality is measured by cmd/partbench; this is the time side).
func BenchmarkAblationPartitioners(b *testing.B) {
	g := gen.BarabasiAlbert(2*benchN, 2, benchSeed, gen.Config{})
	b.Run("Multilevel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = (partition.Multilevel{Seed: int64(i)}).Partition(g, benchP)
		}
	})
	b.Run("BFSGrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = (partition.BFSGrow{Seed: int64(i)}).Partition(g, benchP)
		}
	})
	b.Run("RoundRobin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = (partition.RoundRobin{}).Partition(g, benchP)
		}
	})
}

// BenchmarkStepObsOverhead pins the cost of the live-metrics layer around
// the step loop: RegistryOff is the production default (nil registry — the
// hot path takes one branch and no clock reads), RegistryOn runs the same
// analysis fully instrumented. scripts/bench_compare.sh diffs the pair; the
// budget is <=5% overhead with the registry on.
func BenchmarkStepObsOverhead(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	run := func(b *testing.B, reg *obs.Registry) {
		for i := 0; i < b.N; i++ {
			e, err := core.New(g.Clone(), core.Options{
				P: benchP, Seed: benchSeed,
				Partitioner: partition.Multilevel{Seed: benchSeed},
				Obs:         reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			mustRun(b, e)
			e.Close()
		}
	}
	b.Run("RegistryOff", func(b *testing.B) { run(b, nil) })
	b.Run("RegistryOn", func(b *testing.B) { run(b, obs.NewRegistry()) })
}

// BenchmarkStepTraceOverhead is the distributed-tracing sibling of
// BenchmarkStepObsOverhead: TracerOff is the production default (nil span
// sink — the step loop takes one branch and no clock reads), TracerOn runs
// the same analysis with a JSONL tracer emitting per-phase spans to a
// discarding writer, so the pair isolates span construction + encoding cost.
// scripts/bench_compare.sh diffs the pair; the budget is <=5% overhead with
// tracing on.
func BenchmarkStepTraceOverhead(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	run := func(b *testing.B, mk func() core.Tracer) {
		for i := 0; i < b.N; i++ {
			var tracer core.Tracer
			if mk != nil {
				tracer = mk()
			}
			e, err := core.New(g.Clone(), core.Options{
				P: benchP, Seed: benchSeed,
				Partitioner: partition.Multilevel{Seed: benchSeed},
				Tracer:      tracer,
			})
			if err != nil {
				b.Fatal(err)
			}
			mustRun(b, e)
			e.Close()
		}
	}
	b.Run("TracerOff", func(b *testing.B) { run(b, nil) })
	b.Run("TracerOn", func(b *testing.B) {
		run(b, func() core.Tracer { return trace.NewJSONL(io.Discard) })
	})
}

// BenchmarkIngest measures sustained mutation throughput through the anytime
// session at equal bounded staleness (every drained batch publishes an
// epoch, so readers never see state older than one drain). PerOp is the
// one-op-at-a-time baseline — each mutation waits for its own apply and
// epoch publish. Pipeline streams the same ops through the asynchronous
// ingest queue, where the aggressive coalescing tier dedupes the queued
// run to the last write per edge and the drain amortises the publish.
//
// The gated stream is hot-edge weight churn — a small working set of edges
// whose weights are rewritten continuously, the telemetry-style workload the
// issue's coalescing rules target. Per-op the engine pays a full relax (or
// invalidation) sweep plus a snapshot publish for every write; coalesced,
// only the last write per edge ever reaches the kernel. The Churn variant
// streams the mixed add/delete/reweight workload under the default exact
// tier for reference (eager deletions pay their cost in the sweep itself,
// which batching cannot hide), with no speedup gate attached.
func BenchmarkIngest(b *testing.B) {
	const (
		streamLen = 256
		hotSet    = 16
	)
	base := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	rng := rand.New(rand.NewSource(benchSeed))
	hot := make([][2]graph.ID, 0, hotSet)
	for len(hot) < hotSet {
		u := graph.ID(rng.Intn(benchN))
		v := graph.ID(rng.Intn(benchN))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if base.HasEdge(u, v) {
			continue
		}
		base.AddEdge(u, v, 2)
		hot = append(hot, [2]graph.ID{u, v})
	}
	ops := make([]core.Mutation, streamLen)
	for i := range ops {
		p := hot[i%hotSet]
		ops[i] = core.WeightSet(p[0], p[1], 1+rng.Int31n(8))
	}
	newSession := func(b *testing.B, mode core.CoalesceMode) *anytime.Session {
		b.Helper()
		s, err := anytime.New(context.Background(), base.Clone(), anytime.Options{
			Engine:      core.Options{P: benchP, Seed: benchSeed, Partitioner: partition.Multilevel{Seed: benchSeed}},
			StartPaused: true, // isolate the mutation pipeline from rc stepping
			IngestQueue: streamLen,
			Coalesce:    mode,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("PerOp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newSession(b, core.CoalesceAggressive) // a singleton drain coalesces to itself
			b.StartTimer()
			for _, m := range ops {
				if err := s.ApplyBatch(&core.Batch{Ops: []core.Mutation{m}}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(streamLen)*float64(b.N)/b.Elapsed().Seconds(), "mutations/sec")
	})
	b.Run("Pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newSession(b, core.CoalesceAggressive)
			b.StartTimer()
			for _, m := range ops {
				if err := s.Enqueue(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Flush(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(streamLen)*float64(b.N)/b.Elapsed().Seconds(), "mutations/sec")
	})
	b.Run("Churn", func(b *testing.B) {
		churn := workload.NewChurn(base, 4, benchSeed)
		mixed := make([]core.Mutation, streamLen)
		for i := range mixed {
			mixed[i] = churn.Next()
		}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newSession(b, core.CoalesceExact)
			b.StartTimer()
			for _, m := range mixed {
				if err := s.Enqueue(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Flush(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(streamLen)*float64(b.N)/b.Elapsed().Seconds(), "mutations/sec")
	})
}

// BenchmarkSnapshotQuery measures the anytime session's lock-free read path:
// concurrent goroutines load the current epoch snapshot and read a distance
// from it, the query pattern the session layer serves while the
// orchestration goroutine owns the engine.
func BenchmarkSnapshotQuery(b *testing.B) {
	g := gen.BarabasiAlbert(benchN, 2, benchSeed, gen.Config{})
	s, err := anytime.New(context.Background(), g, anytime.Options{
		Engine: core.Options{P: benchP, Seed: benchSeed, Partitioner: partition.Multilevel{Seed: benchSeed}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := graph.ID(1)
		for pb.Next() {
			sn := s.Snapshot()
			if sn.Distance(0, v) < 0 {
				b.Fatal("negative distance")
			}
			if v++; int(v) >= benchN {
				v = 1
			}
		}
	})
}

// BenchmarkTopKQuery compares bound-based top-k serving against the full
// Scores()-scan path it replaces, on the converged Fig4 workload. The bound
// index aggregates rows incrementally at publish time, so answering a query
// is O(n log k) ranking work; the full scan re-aggregates every O(n²)
// distance entry per query. Build measures the one-off full-pass cost of
// the index itself.
func BenchmarkTopKQuery(b *testing.B) {
	add := benchAddition(b, 16)
	e := benchEngine(b, add.Base.Clone())
	defer e.Close()
	mustRun(b, e)
	dist := e.Distances()
	g := e.Graph()
	live, width := g.Vertices(), g.NumIDs()
	bs := centrality.NewBoundState(dist, live, width, centrality.MinEdgeWeight(g))
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("Bound/K%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bs.TopK(k, true)
				if len(res.Entries) != k {
					b.Fatalf("%d entries, want %d", len(res.Entries), k)
				}
			}
		})
		b.Run(fmt.Sprintf("FullScan/K%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := centrality.FromDistances(dist, live, width)
				if ids := centrality.TopK(s, s.Harmonic, k); len(ids) != k {
					b.Fatalf("%d ids, want %d", len(ids), k)
				}
			}
		})
	}
	b.Run("Build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs = centrality.NewBoundState(dist, live, width, centrality.MinEdgeWeight(g))
		}
	})
}
