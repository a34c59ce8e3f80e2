// Socialstream: the scenario from the paper's introduction — an online
// community where new actors join continuously. Community-structured vertex
// batches (extracted with Louvain, as in the paper's experiments) stream
// into a running closeness analysis; after every injection the analysis
// keeps serving monotonically improving centrality estimates instead of
// restarting.
package main

import (
	"fmt"
	"log"

	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/workload"
)

func main() {
	const (
		baseN = 1200 // initial community size
		joins = 240  // actors that will join over time
		waves = 6    // arrival waves
		procs = 8
	)
	add, err := workload.ExtractAddition(baseN, joins, 7, gen.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base network: %d actors, %d ties; %d newcomers arriving in %d waves\n",
		add.Base.NumVertices(), add.Base.NumEdges(), add.Batch.Count, waves)

	engine, err := core.New(add.Base, core.Options{P: procs, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := engine.Run(); err != nil {
		log.Fatal(err)
	}
	report(engine, "initial analysis")

	inc := workload.NewIncremental(add.Batch, waves)
	ps := &core.CutEdgePS{Seed: 7} // keep arriving communities co-located
	wave := 0
	for inc.Remaining() > 0 {
		wave++
		added, err := inc.Inject(engine, ps)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := engine.Run(); err != nil {
			log.Fatal(err)
		}
		report(engine, fmt.Sprintf("after wave %d (+%d actors)", wave, added))
	}

	st := engine.Stats()
	fmt.Printf("\ntotal: %d RC steps, %.1f MB exchanged, simulated parallel time %v\n",
		engine.StepCount(), float64(st.BytesSent)/(1<<20), st.SimTotal().Round(1e6))
	fmt.Println("a restart-based tool would have re-analysed the whole network after every wave")
}

func report(e *core.Engine, label string) {
	s := e.Scores()
	top := centrality.TopK(s, s.Classic, 3)
	fmt.Printf("%-28s n=%-5d top actors:", label, e.Graph().NumVertices())
	for _, v := range top {
		fmt.Printf("  %d (%.5f)", v, s.Classic[v])
	}
	fmt.Println()
}
