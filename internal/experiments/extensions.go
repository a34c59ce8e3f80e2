package experiments

import (
	"fmt"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/metrics"
	"aacc/internal/partition"
	"aacc/internal/workload"
)

// The EXT-* suite extends the paper's evaluation with the studies an IPDPS
// audience would ask for next: strong scaling over processor counts, the
// eager-local-refresh ablation, the wire's cost and robustness across graph
// families.

// Ext1 measures strong scaling: the same static analysis at P = 2..32
// simulated processors, reporting modelled compute, communication and the
// per-processor distance-vector memory — the motivation for distributing in
// the first place.
func Ext1(cfg Config) (*Result, error) {
	res := &Result{
		ID: "ext1",
		Table: metrics.Table{
			Title:   fmt.Sprintf("EXT-1 — strong scaling of the static analysis, n=%d", cfg.N),
			Columns: []string{"P", "sim-compute(s)", "sim-comm(s)", "sim-total(s)", "rc-steps", "MB/proc"},
		},
		Notes: []string{
			"compute shrinks with P (parallel relaxation); communication grows (more cut edges,",
			"serial all-to-all schedule); the crossover bounds useful processor counts",
		},
	}
	g := cfg.baseGraph()
	for _, p := range []int{2, 4, 8, 16, 32} {
		cfg.progress("ext1: P=%d", p)
		e, err := core.New(g.Clone(), core.Options{P: p, Seed: cfg.Seed, Partitioner: partition.Multilevel{Seed: cfg.Seed}})
		if err != nil {
			return nil, err
		}
		steps, err := e.Run()
		if err != nil {
			return nil, err
		}
		st := e.Stats()
		mbPerProc := float64(cfg.N) * float64(cfg.N) * 4 / float64(p) / (1 << 20)
		res.Table.AddRow(
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%.3f", st.SimCompute.Seconds()),
			fmt.Sprintf("%.3f", st.SimComm.Seconds()),
			fmt.Sprintf("%.3f", st.SimTotal().Seconds()),
			fmt.Sprintf("%d", steps),
			fmt.Sprintf("%.3f", mbPerProc),
		)
	}
	return res, nil
}

// Ext3 is the eager-local-refresh ablation: the paper's optional
// Floyd–Warshall-style local refresh strategy against the default
// incremental path, on a static analysis and on a vertex-addition burst.
func Ext3(cfg Config) (*Result, error) {
	res := &Result{
		ID: "ext3",
		Table: metrics.Table{
			Title:   fmt.Sprintf("EXT-3 — eager local refresh ablation, %d procs, n=%d", cfg.P, cfg.N),
			Columns: []string{"scenario", "mode", "sim-total(s)", "rc-steps"},
		},
		Notes: []string{
			"eager refresh can save RC steps (latency) at a large per-step compute cost;",
			"the paper offers it for fresher partial results, not for speed",
		},
	}
	add, err := workload.ExtractAddition(cfg.N, cfg.scaled(2000), cfg.Seed, gen.Config{MaxWeight: cfg.MaxWeight})
	if err != nil {
		return nil, err
	}
	for _, eager := range []bool{false, true} {
		mode := "incremental"
		if eager {
			mode = "eager-refresh"
		}
		for _, scenario := range []string{"static", "vertex-burst"} {
			cfg.progress("ext3: %s %s", scenario, mode)
			e, err := core.New(add.Base.Clone(), core.Options{
				P: cfg.P, Seed: cfg.Seed,
				Partitioner:       partition.Multilevel{Seed: cfg.Seed},
				EagerLocalRefresh: eager,
			})
			if err != nil {
				return nil, err
			}
			if scenario == "vertex-burst" {
				if _, err := apply(e, core.VertexAdd(add.Batch.Clone(), &core.RoundRobinPS{})); err != nil {
					return nil, err
				}
			}
			steps, err := e.Run()
			if err != nil {
				return nil, err
			}
			res.Table.AddRow(
				scenario,
				mode,
				fmt.Sprintf("%.3f", simSeconds(e.Stats().SimTotal())),
				fmt.Sprintf("%d", steps),
			)
		}
	}
	return res, nil
}
