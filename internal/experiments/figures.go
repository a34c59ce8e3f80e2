package experiments

import (
	"fmt"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/metrics"
	"aacc/internal/workload"
)

// figInjectionSteps are the paper's injection points (Figure 4).
var figInjectionSteps = []int{0, 4, 8}

// figBatchSizes are the paper-scale batch sizes of Figures 5–7.
var figBatchSizes = []int{500, 2000, 4000, 6000}

// figIncrementRates are the paper-scale per-step addition rates of Figure 8
// (cumulative counts 512, 1873, 3830, 5611 over 10 steps).
var figIncrementRates = []int{51, 187, 383, 561}

// Fig4 regenerates Figure 4: baseline restart vs anytime anywhere
// (RoundRobin-PS) for one scaled batch of 512 vertex additions injected at
// RC steps 0, 4 and 8. The reported time is the simulated parallel time to
// final (converged) results, in seconds.
func Fig4(cfg Config) (*Result, error) {
	x := cfg.scaled(512)
	add, err := workload.ExtractAddition(cfg.N, x, cfg.Seed, gen.Config{MaxWeight: cfg.MaxWeight})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID: "fig4",
		Table: metrics.Table{
			Title:   fmt.Sprintf("Figure 4 — restart vs anytime (RoundRobin-PS), %d vertex adds, %d procs, n=%d", add.Batch.Count, cfg.P, cfg.N),
			Columns: []string{"inject-at", "anytime-RR(s)", "baseline-restart(s)", "restart/anytime"},
		},
		Notes: []string{
			"paper shape: anytime well below restart at every injection step; restart roughly flat",
		},
	}
	for _, step := range figInjectionSteps {
		cfg.progress("fig4: injection at RC%d", step)
		// Anytime anywhere with RoundRobin-PS.
		e, err := cfg.newEngine(add.Base.Clone())
		if err != nil {
			return nil, err
		}
		runSteps(e, step)
		if _, err := apply(e, core.VertexAdd(add.Batch.Clone(), &core.RoundRobinPS{})); err != nil {
			return nil, err
		}
		if _, err := e.Run(); err != nil {
			return nil, err
		}
		anytime := simSeconds(e.Stats().SimTotal())

		// Baseline restart: a static method cannot fold the changes in,
		// so it completes the original analysis and re-runs the whole
		// pipeline on the updated graph (which is why the paper's
		// restart curve is flat across injection steps).
		r, err := cfg.newEngine(add.Base.Clone())
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		g2 := r.Graph().Clone()
		applyBatchRaw(g2, add.Batch)
		r.ReinitializeFrom(g2)
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		restart := simSeconds(r.Stats().SimTotal())

		res.Table.AddRow(
			fmt.Sprintf("RC%d", step),
			fmt.Sprintf("%.3f", anytime),
			fmt.Sprintf("%.3f", restart),
			fmt.Sprintf("%.2fx", restart/anytime),
		)
	}
	return res, nil
}

// strategyRun measures one (strategy, batch, injection step) cell: simulated
// seconds to converged results and the number of new cut edges.
func strategyRun(cfg Config, add *workload.Addition, strategy string, injectAt int) (secs float64, newCut int, err error) {
	e, err := cfg.newEngine(add.Base.Clone())
	if err != nil {
		return 0, 0, err
	}
	runSteps(e, injectAt)
	cutBefore := e.Assignment().CutEdges(e.Graph())
	switch strategy {
	case "RoundRobin-PS":
		_, err = apply(e, core.VertexAdd(add.Batch.Clone(), &core.RoundRobinPS{}))
	case "CutEdge-PS":
		_, err = apply(e, core.VertexAdd(add.Batch.Clone(), &core.CutEdgePS{Seed: cfg.Seed}))
	case "Repartition-S":
		_, err = apply(e, core.RepartitionOp(add.Batch.Clone()))
	default:
		return 0, 0, fmt.Errorf("unknown strategy %q", strategy)
	}
	if err != nil {
		return 0, 0, err
	}
	if _, err := e.Run(); err != nil {
		return 0, 0, err
	}
	cutAfter := e.Assignment().CutEdges(e.Graph())
	return simSeconds(e.Stats().SimTotal()), cutAfter - cutBefore, nil
}

var strategies = []string{"Repartition-S", "CutEdge-PS", "RoundRobin-PS"}

func figStrategies(cfg Config, id string, injectAt int) (*Result, error) {
	res := &Result{
		ID: id,
		Table: metrics.Table{
			Title: fmt.Sprintf("Figure %s — vertex additions at RC%d, %d procs, n=%d (time in simulated seconds)",
				id[3:], injectAt, cfg.P, cfg.N),
			Columns: []string{"batch(paper-scale)", "batch(actual)", "Repartition-S(s)", "CutEdge-PS(s)", "RoundRobin-PS(s)"},
		},
		Notes: []string{
			"paper shape: PS strategies win for small batches; Repartition-S overtakes as the batch grows",
		},
	}
	for _, paperX := range figBatchSizes {
		x := cfg.scaled(paperX)
		add, err := workload.ExtractAddition(cfg.N, x, cfg.Seed+int64(paperX), gen.Config{MaxWeight: cfg.MaxWeight})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", paperX), fmt.Sprintf("%d", add.Batch.Count)}
		for _, s := range strategies {
			cfg.progress("%s: batch %d strategy %s", id, add.Batch.Count, s)
			secs, _, err := strategyRun(cfg, add, s, injectAt)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", secs))
		}
		res.Table.AddRow(row...)
	}
	return res, nil
}

// Fig5 regenerates Figure 5: the three strategies for vertex additions
// injected at the start of the analysis (RC0), over growing batch sizes.
func Fig5(cfg Config) (*Result, error) { return figStrategies(cfg, "fig5", 0) }

// Fig6 regenerates Figure 6: the same sweep with injections late in the
// analysis (RC8).
func Fig6(cfg Config) (*Result, error) { return figStrategies(cfg, "fig6", 8) }

// Fig7 regenerates Figure 7: the number of new cut-edges each strategy's
// placement creates (community-structured batches).
func Fig7(cfg Config) (*Result, error) {
	res := &Result{
		ID: "fig7",
		Table: metrics.Table{
			Title:   fmt.Sprintf("Figure 7 — new cut-edges by strategy, %d procs, n=%d", cfg.P, cfg.N),
			Columns: []string{"batch(paper-scale)", "batch(actual)", "Repartition-S", "CutEdge-PS", "RoundRobin-PS"},
		},
		Notes: []string{
			"paper shape: RoundRobin-PS creates the most new cut edges, CutEdge-PS fewer, Repartition-S fewest",
			"Repartition-S may be negative: repartitioning the grown graph can beat the original cut",
		},
	}
	for _, paperX := range figBatchSizes {
		x := cfg.scaled(paperX)
		add, err := workload.ExtractAddition(cfg.N, x, cfg.Seed+int64(paperX), gen.Config{MaxWeight: cfg.MaxWeight})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", paperX), fmt.Sprintf("%d", add.Batch.Count)}
		for _, s := range strategies {
			cfg.progress("fig7: batch %d strategy %s", add.Batch.Count, s)
			_, cut, err := strategyRun(cfg, add, s, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", cut))
		}
		res.Table.AddRow(row...)
	}
	return res, nil
}

// Fig8 regenerates Figure 8: incremental vertex additions — the batch is
// spread over 10 RC steps — comparing baseline restart, Repartition-S,
// RoundRobin-PS and CutEdge-PS at four addition rates.
func Fig8(cfg Config) (*Result, error) {
	const steps = 10
	res := &Result{
		ID: "fig8",
		Table: metrics.Table{
			Title:   fmt.Sprintf("Figure 8 — incremental vertex additions over %d RC steps, %d procs, n=%d (simulated seconds)", steps, cfg.P, cfg.N),
			Columns: []string{"per-step(paper)", "total(actual)", "Baseline-Restart(s)", "Repartition-S(s)", "RoundRobin-PS(s)", "CutEdge-PS(s)"},
		},
		Notes: []string{
			"paper shape: restart far above everything; PS strategies best at low rates; Repartition-S closes in at the highest rates",
		},
	}
	methods := []string{"Baseline-Restart", "Repartition-S", "RoundRobin-PS", "CutEdge-PS"}
	for _, rate := range figIncrementRates {
		total := cfg.scaled(rate * steps)
		add, err := workload.ExtractAddition(cfg.N, total, cfg.Seed+int64(rate), gen.Config{MaxWeight: cfg.MaxWeight})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d (%d)", rate, rate*steps), fmt.Sprintf("%d", add.Batch.Count)}
		for _, method := range methods {
			cfg.progress("fig8: rate %d method %s", rate, method)
			secs, err := incrementalRun(cfg, add, method, steps)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", secs))
		}
		res.Table.AddRow(row...)
	}
	return res, nil
}

func incrementalRun(cfg Config, add *workload.Addition, method string, steps int) (float64, error) {
	e, err := cfg.newEngine(add.Base.Clone())
	if err != nil {
		return 0, err
	}
	inc := workload.NewIncremental(add.Batch, steps)
	rr := &core.RoundRobinPS{}
	for inc.Remaining() > 0 {
		e.Step()
		chunk := inc.Next()
		switch method {
		case "Baseline-Restart":
			g2 := e.Graph().Clone()
			ids := applyBatchRaw(g2, chunk)
			inc.NoteIDs(ids)
			e.ReinitializeFrom(g2)
			if _, err := e.Run(); err != nil {
				return 0, err
			}
		case "Repartition-S":
			m, err := apply(e, core.RepartitionOp(chunk))
			if err != nil {
				return 0, err
			}
			inc.NoteIDs(m.Repart.NewIDs)
		case "RoundRobin-PS":
			m, err := apply(e, core.VertexAdd(chunk, rr))
			if err != nil {
				return 0, err
			}
			inc.NoteIDs(m.AssignedIDs)
		case "CutEdge-PS":
			m, err := apply(e, core.VertexAdd(chunk, &core.CutEdgePS{Seed: cfg.Seed}))
			if err != nil {
				return 0, err
			}
			inc.NoteIDs(m.AssignedIDs)
		default:
			return 0, fmt.Errorf("unknown method %q", method)
		}
	}
	if _, err := e.Run(); err != nil {
		return 0, err
	}
	return simSeconds(e.Stats().SimTotal()), nil
}

// apply runs one mutation through the engine's single entry point and
// returns it with its result fields (AssignedIDs, Repart) filled in.
func apply(e *core.Engine, m core.Mutation) (core.Mutation, error) {
	b := &core.Batch{Ops: []core.Mutation{m}}
	err := e.ApplyBatch(b)
	return b.Ops[0], err
}
