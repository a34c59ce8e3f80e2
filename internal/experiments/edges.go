package experiments

import (
	"fmt"

	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/metrics"
	"aacc/internal/workload"
)

// EA1 regenerates the titled paper's edge-addition comparison: a scaled
// batch of new relationships arrives at RC step 0, 4 or 8; the anytime
// anywhere edge-addition algorithm is compared against baseline restart.
func EA1(cfg Config) (*Result, error) {
	count := cfg.scaled(512)
	res := &Result{
		ID: "ea1",
		Table: metrics.Table{
			Title:   fmt.Sprintf("EA-1 — edge additions: anytime vs restart, %d new edges, %d procs, n=%d", count, cfg.P, cfg.N),
			Columns: []string{"inject-at", "anytime(s)", "baseline-restart(s)", "restart/anytime"},
		},
		Notes: []string{"titled-paper shape: anytime well below restart at every injection step"},
	}
	base := cfg.baseGraph()
	adds := workload.RandomEdgeAdditions(base, count, maxW(cfg), cfg.Seed+11)
	for _, step := range figInjectionSteps {
		cfg.progress("ea1: injection at RC%d", step)
		e, err := cfg.newEngine(base.Clone())
		if err != nil {
			return nil, err
		}
		runSteps(e, step)
		if _, err := apply(e, core.EdgeAdd(adds...)); err != nil {
			return nil, err
		}
		if _, err := e.Run(); err != nil {
			return nil, err
		}
		anytime := simSeconds(e.Stats().SimTotal())

		r, err := cfg.newEngine(base.Clone())
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		g2 := r.Graph().Clone()
		for _, ed := range adds {
			g2.AddEdge(ed.U, ed.V, ed.W)
		}
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

// ED1 regenerates the titled paper's core experiment: edge deletions during
// closeness centrality analysis, anytime anywhere vs baseline restart, with
// the deletion batch arriving at RC step 0, 4 or 8. (The anytime engine
// converges before invalidating — the deletion test needs exact state — so
// "inject at RC-k" measures how much of that convergence work was already
// done when the deletions arrived.)
func ED1(cfg Config) (*Result, error) {
	count := cfg.scaled(512)
	res := &Result{
		ID: "ed1",
		Table: metrics.Table{
			Title:   fmt.Sprintf("ED-1 — edge deletions: anytime vs restart, %d deletions, %d procs, n=%d", count, cfg.P, cfg.N),
			Columns: []string{"inject-at", "anytime(s)", "baseline-restart(s)", "restart/anytime"},
		},
		Notes: []string{"titled-paper shape: anytime below restart; mid-analysis deletions reset suspect rows (near restart cost close to the fixpoint)"},
	}
	base := cfg.baseGraph()
	dels := workload.RandomEdgeDeletions(base, count, cfg.Seed+13)
	for _, step := range figInjectionSteps {
		cfg.progress("ed1: injection at RC%d", step)
		e, err := cfg.newEngine(base.Clone())
		if err != nil {
			return nil, err
		}
		runSteps(e, step)
		if _, err := apply(e, core.EdgeDelete(dels...)); err != nil {
			return nil, err
		}
		if _, err := e.Run(); err != nil {
			return nil, err
		}
		anytime := simSeconds(e.Stats().SimTotal())

		r, err := cfg.newEngine(base.Clone())
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		g2 := r.Graph().Clone()
		for _, d := range dels {
			g2.RemoveEdge(d[0], d[1])
		}
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

// ED2 regenerates the deletion batch-size sweep: fractions of the edge set
// deleted from a converged analysis, anytime vs restart.
func ED2(cfg Config) (*Result, error) {
	res := &Result{
		ID: "ed2",
		Table: metrics.Table{
			Title:   fmt.Sprintf("ED-2 — deletion batch-size sweep (converged start), %d procs, n=%d", cfg.P, cfg.N),
			Columns: []string{"fraction", "deleted", "anytime-delta(s)", "restart-delta(s)", "restart/anytime"},
		},
		Notes: []string{"titled-paper shape: anytime advantage shrinks as the deleted fraction grows"},
	}
	base := cfg.baseGraph()
	for _, milli := range []int{5, 10, 20, 40} { // 0.5%, 1%, 2%, 4%
		count := base.NumEdges() * milli / 1000
		if count < 1 {
			count = 1
		}
		dels := workload.RandomEdgeDeletions(base, count, cfg.Seed+int64(milli))
		cfg.progress("ed2: deleting %d edges (%.1f%%)", len(dels), float64(milli)/10)

		e, err := cfg.newEngine(base.Clone())
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(); err != nil {
			return nil, err
		}
		before := e.Stats().SimTotal()
		if _, err := apply(e, core.EdgeDelete(dels...)); err != nil {
			return nil, err
		}
		if _, err := e.Run(); err != nil {
			return nil, err
		}
		anytime := simSeconds(e.Stats().SimTotal() - before)

		r, err := cfg.newEngine(base.Clone())
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		beforeR := r.Stats().SimTotal()
		g2 := r.Graph().Clone()
		for _, d := range dels {
			g2.RemoveEdge(d[0], d[1])
		}
		r.ReinitializeFrom(g2)
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		restart := simSeconds(r.Stats().SimTotal() - beforeR)

		res.Table.AddRow(
			fmt.Sprintf("%.1f%%", float64(milli)/10),
			fmt.Sprintf("%d", len(dels)),
			fmt.Sprintf("%.3f", anytime),
			fmt.Sprintf("%.3f", restart),
			fmt.Sprintf("%.2fx", restart/anytime),
		)
	}
	return res, nil
}

func maxW(cfg Config) int32 {
	if cfg.MaxWeight > 1 {
		return cfg.MaxWeight
	}
	return 1
}

// edgePairs converts triples to pairs (helper shared by tests).
func edgePairs(edges []graph.EdgeTriple) [][2]graph.ID {
	out := make([][2]graph.ID, len(edges))
	for i, e := range edges {
		out[i] = [2]graph.ID{e.U, e.V}
	}
	return out
}
