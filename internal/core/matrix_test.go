package core

import (
	"fmt"
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/runtime"
)

// TestOptionMatrix runs one dynamic scenario under every combination of the
// engine's optional modes — wire transport, eager local refresh, eager
// deletions — and requires the oracle result from each. The modes are
// orthogonal by design; this pins that down.
func TestOptionMatrix(t *testing.T) {
	for _, rt := range []runtime.Kind{runtime.Sim, runtime.WireTCP} {
		for _, refresh := range []bool{false, true} {
			for _, eagerDel := range []bool{false, true} {
				name := fmt.Sprintf("runtime=%s_refresh=%t_eagerdel=%t", rt, refresh, eagerDel)
				t.Run(name, func(t *testing.T) {
					g := gen.BarabasiAlbert(120, 2, 99, gen.Config{MaxWeight: 3})
					e, err := New(g, Options{
						P:                 6,
						Seed:              99,
						Runtime:           rt,
						EagerLocalRefresh: refresh,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					e.Step()
					batch := &VertexBatch{
						Count:    3,
						Internal: []BatchEdge{{A: 0, B: 1, W: 1}, {A: 1, B: 2, W: 2}},
						External: []AttachEdge{{New: 0, To: 7, W: 1}, {New: 2, To: 90, W: 1}},
					}
					if _, err := e.applyVertexAdditions(batch, &CutEdgePS{Seed: 99}); err != nil {
						t.Fatal(err)
					}
					if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: 3, V: 110, W: 1}}); err != nil {
						t.Fatal(err)
					}
					del := [][2]graph.ID{{0, 1}}
					if eagerDel {
						err = e.applyEdgeDeletionsEager(del)
					} else {
						err = e.applyEdgeDeletions(del)
					}
					if err != nil {
						t.Fatal(err)
					}
					if _, err := e.FailProcessor(2); err != nil {
						t.Fatal(err)
					}
					mustRun(t, e)
					checkExact(t, e)
				})
			}
		}
	}
}
