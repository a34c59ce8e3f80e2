package core

import (
	"fmt"
	"testing"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

// checkOwnSnapshots asserts the snapshot ownership rule: every held
// snapshot is its processor's own width-sized array — no two snapshots on
// any processors share a backing array, and none aliases a DV store row.
func checkOwnSnapshots(t *testing.T, e *Engine, when string) {
	t.Helper()
	arrays := make(map[*int32]string)
	for _, pr := range e.procs {
		for _, v := range pr.local {
			if row := pr.store.Row(v); len(row) > 0 {
				arrays[&row[0]] = fmt.Sprintf("store row %d on processor %d", v, pr.id)
			}
		}
	}
	for _, pr := range e.procs {
		for v, snap := range pr.ext {
			if len(snap) != e.width {
				t.Fatalf("%s: processor %d holds snapshot %d of length %d, want width %d", when, pr.id, v, len(snap), e.width)
			}
			here := fmt.Sprintf("snapshot %d on processor %d", v, pr.id)
			if other, ok := arrays[&snap[0]]; ok {
				t.Fatalf("%s: %s shares its backing array with %s", when, here, other)
			}
			arrays[&snap[0]] = here
		}
	}
}

// TestSnapshotsAreOwnArrays runs the reference-passing sim runtime, where
// full receipts arrive as the sender's live row, and checks after every RC
// step and every mutation that each receiver copied what it received.
func TestSnapshotsAreOwnArrays(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			g := gen.BarabasiAlbert(300, 2, 5, gen.Config{MaxWeight: 3})
			e, err := New(g, Options{P: 8, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			run := func(phase string) {
				for !e.Converged() {
					rep, err := e.Step()
					if err != nil {
						t.Fatal(err)
					}
					checkOwnSnapshots(t, e, fmt.Sprintf("%s, step %d", phase, rep.Step))
				}
			}
			run("first convergence")

			var dels [][2]graph.ID
			for _, ed := range e.Graph().Neighbors(0)[:2] {
				dels = append(dels, [2]graph.ID{0, ed.To})
			}
			if err := e.applyEdgeDeletions(dels); err != nil {
				t.Fatal(err)
			}
			checkOwnSnapshots(t, e, "after the edge deletion")
			run("after the edge deletion")

			batch := &VertexBatch{
				Count:    3,
				Internal: []BatchEdge{{A: 0, B: 1, W: 1}, {A: 1, B: 2, W: 2}},
				External: []AttachEdge{{New: 0, To: 7, W: 1}, {New: 2, To: 150, W: 1}},
			}
			if _, err := e.repartition(batch); err != nil {
				t.Fatal(err)
			}
			checkOwnSnapshots(t, e, "after the repartition")
			run("after the repartition")
			checkExact(t, e)
		})
	}
}
