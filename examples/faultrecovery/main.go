// Faultrecovery: the paper's future-work scenario — fault tolerance for
// cloud deployments. A processor crashes mid-analysis and rebuilds its
// distance vectors from the boundary snapshots its neighbours still hold
// (checkpoint-free recovery); separately, the whole analysis survives a full
// cluster loss through an anytime checkpoint, resuming with every partial
// result intact.
package main

import (
	"bytes"
	"fmt"
	"log"

	"aacc/internal/core"
	"aacc/internal/gen"
)

func main() {
	const (
		n     = 1200
		procs = 12
	)
	g := gen.BarabasiAlbert(n, 2, 21, gen.Config{MaxWeight: 3})
	engine, err := core.New(g, core.Options{P: procs, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}

	// Make some progress, then lose a processor.
	engine.Step()
	engine.Step()
	engine.Step()
	fmt.Printf("analysis at RC step %d... processor 5 crashes\n", engine.StepCount())
	rec, err := engine.FailProcessor(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d rows lost, %d rebuilt from neighbours' snapshots, %d entries salvaged\n",
		rec.RowsLost, rec.RowsFromSnapshots, rec.EntriesRecovered)
	if _, err := engine.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-converged at RC step %d; results are exact again\n\n", engine.StepCount())

	// Checkpoint the anytime state, then simulate total cluster loss.
	var ckpt bytes.Buffer
	if err := engine.WriteCheckpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written: %.1f KB (graph + ownership + all distance vectors)\n",
		float64(ckpt.Len())/1024)

	restored, err := core.LoadCheckpoint(&ckpt, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// The restored engine starts from the checkpointed quality: it only
	// needs to rebuild boundary snapshots, not recompute distances.
	steps, err := restored.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored on a fresh cluster: %d RC steps to re-verify convergence (no recomputation)\n", steps)

	// And the restored analysis is still fully dynamic.
	batch := &core.VertexBatch{
		Count:    2,
		Internal: []core.BatchEdge{{A: 0, B: 1, W: 1}},
		External: []core.AttachEdge{{New: 0, To: 10, W: 1}},
	}
	add := &core.Batch{Ops: []core.Mutation{core.VertexAdd(batch, &core.CutEdgePS{Seed: 21})}}
	if err := restored.ApplyBatch(add); err != nil {
		log.Fatal(err)
	}
	if _, err := restored.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("applied a post-restore vertex addition and re-converged — anytime, anywhere, and durable")
}
