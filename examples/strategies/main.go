// Strategies: a large community-structured burst of new vertices hits a
// running analysis, handled three ways — RoundRobin-PS, CutEdge-PS and
// Repartition-S — reproducing the trade-off of the paper's Figures 5–7 on a
// single scenario: the cut-aware strategies keep the new communities
// co-located (fewer cut edges), while Repartition-S pays a migration bill to
// get the globally best partition.
package main

import (
	"fmt"
	"log"
	"os"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/metrics"
	"aacc/internal/partition"
	"aacc/internal/workload"
)

func main() {
	const (
		baseN = 1500
		burst = 300
		procs = 16
	)
	add, err := workload.ExtractAddition(baseN, burst, 11, gen.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("burst: %d vertices in %d communities, %d internal + %d attachment edges\n\n",
		add.Batch.Count, add.Communities, len(add.Batch.Internal), len(add.Batch.External))

	tab := metrics.Table{
		Title:   "one burst, three strategies",
		Columns: []string{"strategy", "sim-time", "new-cut-edges", "vertex-imbalance", "rc-steps"},
	}
	for _, name := range []string{"RoundRobin-PS", "CutEdge-PS", "Repartition-S"} {
		engine, err := core.New(add.Base.Clone(), core.Options{
			P: procs, Seed: 11, Partitioner: partition.Multilevel{Seed: 11},
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := engine.Run(); err != nil {
			log.Fatal(err)
		}
		cutBefore := engine.Assignment().CutEdges(engine.Graph())
		batch := add.Batch.Clone()
		var m core.Mutation
		switch name {
		case "RoundRobin-PS":
			m = core.VertexAdd(batch, &core.RoundRobinPS{})
		case "CutEdge-PS":
			m = core.VertexAdd(batch, &core.CutEdgePS{Seed: 11})
		case "Repartition-S":
			m = core.RepartitionOp(batch)
		}
		if err := engine.ApplyBatch(&core.Batch{Ops: []core.Mutation{m}}); err != nil {
			log.Fatal(err)
		}
		if _, err := engine.Run(); err != nil {
			log.Fatal(err)
		}
		load := metrics.Measure(engine.Graph(), procs, func(v graph.ID) int { return engine.Owner(v) })
		tab.AddRow(
			name,
			engine.Stats().SimTotal().Round(1e6).String(),
			fmt.Sprintf("%+d", engine.Assignment().CutEdges(engine.Graph())-cutBefore),
			fmt.Sprintf("%.3f", load.VertexImbalance),
			fmt.Sprintf("%d", engine.StepCount()),
		)
	}
	if err := tab.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("RoundRobin-PS scatters each community across all processors;")
	fmt.Println("CutEdge-PS partitions the new community graph first; Repartition-S")
	fmt.Println("re-partitions everything and migrates partial results.")
}
