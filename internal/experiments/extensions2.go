package experiments

import (
	"fmt"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/metrics"
	"aacc/internal/partition"
	"aacc/internal/runtime"
	"aacc/internal/workload"
)

// Ext4 compares the in-memory exchange against the real TCP-loopback wire:
// identical results by construction (tested), so the interesting columns are
// the measured wire bytes versus the in-memory estimate, and the
// serialisation overhead in wall time.
func Ext4(cfg Config) (*Result, error) {
	res := &Result{
		ID: "ext4",
		Table: metrics.Table{
			Title:   fmt.Sprintf("EXT-4 — in-memory exchange vs TCP loopback wire, %d procs, n=%d", cfg.P, cfg.N),
			Columns: []string{"mode", "bytes(MB)", "sim-compute(s)", "sim-comm(s)", "rc-steps"},
		},
		Notes: []string{
			"wire bytes are measured frame sizes (binary codec); in-memory bytes are the caller's",
			"estimate — agreement validates the traffic model the other experiments rely on",
		},
	}
	g := cfg.baseGraph()
	for _, rt := range []runtime.Kind{runtime.Sim, runtime.WireTCP} {
		mode := "in-memory"
		if rt == runtime.WireTCP {
			mode = "tcp-wire"
		}
		cfg.progress("ext4: %s", mode)
		e, err := core.New(g.Clone(), core.Options{
			P: cfg.P, Seed: cfg.Seed,
			Partitioner: partition.Multilevel{Seed: cfg.Seed},
			Runtime:     rt,
		})
		if err != nil {
			return nil, err
		}
		steps, err := e.Run()
		if err != nil {
			e.Close()
			return nil, err
		}
		st := e.Stats()
		e.Close()
		res.Table.AddRow(
			mode,
			fmt.Sprintf("%.2f", float64(st.BytesSent)/(1<<20)),
			fmt.Sprintf("%.3f", st.SimCompute.Seconds()),
			fmt.Sprintf("%.3f", st.SimComm.Seconds()),
			fmt.Sprintf("%d", steps),
		)
	}
	return res, nil
}

// Ext5 checks that the headline result (anytime beats restart for vertex
// additions) is robust across graph families: Barabási–Albert, R-MAT
// Kronecker, Watts–Strogatz small-world and Erdős–Rényi.
func Ext5(cfg Config) (*Result, error) {
	res := &Result{
		ID: "ext5",
		Table: metrics.Table{
			Title:   fmt.Sprintf("EXT-5 — anytime vs restart across graph families, %d procs, n≈%d", cfg.P, cfg.N),
			Columns: []string{"family", "n", "m", "anytime(s)", "restart(s)", "ratio"},
		},
		Notes: []string{
			"the paper evaluates scale-free graphs only; the anytime advantage should not",
			"depend on the degree distribution",
		},
	}
	families := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"barabasi-albert", func() *graph.Graph {
			return gen.BarabasiAlbert(cfg.N, 2, cfg.Seed, gen.Config{MaxWeight: cfg.MaxWeight})
		}},
		{"rmat", func() *graph.Graph {
			scale := 1
			for 1<<uint(scale) < cfg.N {
				scale++
			}
			return gen.RMAT(scale, 4, cfg.Seed, gen.Config{MaxWeight: cfg.MaxWeight})
		}},
		{"watts-strogatz", func() *graph.Graph {
			return gen.WattsStrogatz(cfg.N, 3, 0.1, cfg.Seed, gen.Config{MaxWeight: cfg.MaxWeight})
		}},
		{"erdos-renyi", func() *graph.Graph {
			return gen.ErdosRenyiM(cfg.N, 3*cfg.N, cfg.Seed, gen.Config{MaxWeight: cfg.MaxWeight})
		}},
	}
	x := cfg.scaled(512)
	for _, fam := range families {
		cfg.progress("ext5: %s", fam.name)
		base := fam.build()
		// A batch attached to this family's graph: reuse the extractor's
		// community batch against a base of matching size.
		add, err := workload.ExtractAddition(base.NumVertices(), x, cfg.Seed+7, gen.Config{MaxWeight: cfg.MaxWeight})
		if err != nil {
			return nil, err
		}
		// Rewire the batch's attachments onto the family graph (the IDs are
		// valid for any base of at least that size).
		batch := add.Batch.Clone()
		for i := range batch.External {
			if int(batch.External[i].To) >= base.NumIDs() || !base.Has(batch.External[i].To) {
				batch.External[i].To = base.Vertices()[0]
			}
		}

		e, err := cfg.newEngine(base.Clone())
		if err != nil {
			return nil, err
		}
		runSteps(e, 4)
		if _, err := apply(e, core.VertexAdd(batch.Clone(), &core.RoundRobinPS{})); err != nil {
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
		applyBatchRaw(g2, batch)
		r.ReinitializeFrom(g2)
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		restart := simSeconds(r.Stats().SimTotal())

		res.Table.AddRow(
			fam.name,
			fmt.Sprintf("%d", base.NumVertices()),
			fmt.Sprintf("%d", base.NumEdges()),
			fmt.Sprintf("%.3f", anytime),
			fmt.Sprintf("%.3f", restart),
			fmt.Sprintf("%.2fx", restart/anytime),
		)
	}
	return res, nil
}
