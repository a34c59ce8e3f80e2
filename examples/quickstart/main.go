// Quickstart: build a small social graph, run the anytime anywhere
// closeness-centrality engine on a simulated 4-processor cluster, and read
// the most central actors.
package main

import (
	"fmt"
	"log"

	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/graph"
)

func main() {
	// A toy collaboration network: two tight groups bridged by vertex 4.
	g := graph.New(9)
	for _, e := range [][2]graph.ID{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, // group A ... bridge
		{4, 5}, {5, 6}, {5, 7}, {6, 7}, {7, 8}, // bridge ... group B
	} {
		g.AddEdge(e[0], e[1], 1)
	}

	engine, err := core.New(g, core.Options{P: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := engine.Run(); err != nil {
		log.Fatal(err)
	}

	scores := engine.Scores()
	fmt.Println("closeness centrality (higher = more central):")
	for _, v := range centrality.TopK(scores, scores.Classic, 9) {
		fmt.Printf("  vertex %d: %.4f\n", v, scores.Classic[v])
	}

	// The graph just changed: a new actor joins, linked to both groups.
	batch := &core.VertexBatch{
		Count: 1,
		External: []core.AttachEdge{
			{New: 0, To: 2, W: 1},
			{New: 0, To: 7, W: 1},
		},
	}
	add := &core.Batch{Ops: []core.Mutation{core.VertexAdd(batch, &core.RoundRobinPS{})}}
	if err := engine.ApplyBatch(add); err != nil {
		log.Fatal(err)
	}
	ids := add.Ops[0].AssignedIDs
	if _, err := engine.Run(); err != nil {
		log.Fatal(err)
	}
	scores = engine.Scores()
	fmt.Printf("\nafter the new actor (vertex %d) joined:\n", ids[0])
	for i, v := range centrality.TopK(scores, scores.Classic, 3) {
		fmt.Printf("  #%d vertex %d: %.4f\n", i+1, v, scores.Classic[v])
	}
	fmt.Printf("\nno restart happened: the engine folded the change in, in %d RC steps total\n",
		engine.StepCount())
}
