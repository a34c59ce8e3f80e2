package anytime

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/sssp"
	"aacc/internal/workload"
)

// TestSessionStress is the -race concurrency test: several reader goroutines
// hammer snapshots while one writer streams mutations through the queue.
// Readers check the session invariants — epochs and steps advance
// monotonically, every snapshot is internally consistent (its cached Scores
// equal a recomputation from its own rows, which fails if a row were ever
// recycled underneath a live snapshot, and its top-k scores equal those
// Scores) — and the final state must equal the sequential oracle on the
// mutated graph.
func TestSessionStress(t *testing.T) {
	sessionStress(t, core.Options{P: 4, Seed: 7})
}

// TestSessionStressParallelWorkers is the same stress run with an
// intra-processor worker pool: the engine's sharded IA/relax/reseed paths run
// under the race detector against concurrent snapshot readers.
func TestSessionStressParallelWorkers(t *testing.T) {
	sessionStress(t, core.Options{P: 4, Seed: 7, Workers: 4})
}

func sessionStress(t *testing.T, opts core.Options) {
	const readers = 4
	g := gen.BarabasiAlbert(200, 2, 13, gen.Config{})
	mirror := g.Clone()
	s := mustSession(t, g, Options{Engine: opts})

	ctx, cancelReaders := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastEpoch, lastStep := 0, -1
			for i := 0; ; i++ {
				sn, err := s.WaitFor(ctx, func(sn *Snapshot) bool { return sn.Epoch > lastEpoch })
				if err != nil {
					return // cancelled: the writer is done
				}
				if sn.Epoch <= lastEpoch {
					errc <- fmt.Errorf("reader %d: epoch went %d -> %d", r, lastEpoch, sn.Epoch)
					return
				}
				if sn.Step < lastStep {
					errc <- fmt.Errorf("reader %d: step went %d -> %d", r, lastStep, sn.Step)
					return
				}
				lastEpoch, lastStep = sn.Epoch, sn.Step
				if sn.NumVertices != len(sn.Vertices()) {
					errc <- fmt.Errorf("reader %d: NumVertices %d but %d live vertices",
						r, sn.NumVertices, len(sn.Vertices()))
					return
				}
				if i%8 == r { // occasionally do the expensive immutability check
					got := sn.Scores()
					rows := make(map[graph.ID][]int32, len(sn.Vertices()))
					for _, v := range sn.Vertices() {
						rows[v] = sn.Row(v)
					}
					want := centrality.FromDistances(rows, sn.Vertices(), sn.width)
					for _, v := range sn.Vertices() {
						if got.Harmonic[v] != want.Harmonic[v] || got.Classic[v] != want.Classic[v] {
							errc <- fmt.Errorf("reader %d: snapshot %d scores drifted for vertex %d",
								r, sn.Epoch, v)
							return
						}
					}
					// The epoch's bound index is built by whichever reader
					// ranks first; every reader must see the same scores.
					for _, en := range sn.TopK(5, true).Entries {
						if !(en.Lower <= en.Score && en.Score <= en.Upper) || en.Score != got.Harmonic[en.V] {
							errc <- fmt.Errorf("reader %d: snapshot %d top-k entry %+v disagrees with its scores (%g)",
								r, sn.Epoch, en, got.Harmonic[en.V])
							return
						}
					}
				}
			}
		}(r)
	}

	// Writer: a deterministic mutation stream, mirrored on a plain graph.
	writerErr := func() error {
		adds := workload.RandomEdgeAdditions(mirror, 10, 3, 21)
		if err := apply(s, core.EdgeAdd(adds...)); err != nil {
			return err
		}
		for _, ed := range adds {
			mirror.AddEdge(ed.U, ed.V, ed.W)
		}

		batch := &core.VertexBatch{
			Count:    4,
			Internal: []core.BatchEdge{{A: 0, B: 1, W: 1}, {A: 2, B: 3, W: 2}},
			External: []core.AttachEdge{{New: 0, To: 3, W: 1}, {New: 2, To: 8, W: 1}, {New: 3, To: 50, W: 2}},
		}
		ids, err := addVertices(s, batch, &core.RoundRobinPS{})
		if err != nil {
			return err
		}
		if first := mirror.AddVertices(batch.Count); first != ids[0] {
			return fmt.Errorf("mirror ids diverged: %d vs %d", first, ids[0])
		}
		for _, ed := range batch.Internal {
			mirror.AddEdge(ids[ed.A], ids[ed.B], ed.W)
		}
		for _, ed := range batch.External {
			mirror.AddEdge(ids[ed.New], ed.To, ed.W)
		}

		if err := apply(s, core.WeightSet(adds[0].U, adds[0].V, 1)); err != nil {
			return err
		}
		mirror.AddEdge(adds[0].U, adds[0].V, 1) // AddEdge overwrites the weight

		dels := workload.RandomEdgeDeletions(mirror, 5, 22)
		if err := apply(s, core.EdgeDelete(dels...)); err != nil {
			return err
		}
		for _, d := range dels {
			mirror.RemoveEdge(d[0], d[1])
		}

		time.Sleep(5 * time.Millisecond) // let readers overlap some pure stepping
		dels2 := workload.RandomEdgeDeletions(mirror, 4, 23)
		if err := apply(s, core.EdgeDelete(dels2...)); err != nil {
			return err
		}
		for _, d := range dels2 {
			mirror.RemoveEdge(d[0], d[1])
		}
		return nil
	}()
	if writerErr != nil {
		t.Fatal(writerErr)
	}

	final, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cancelReaders()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if !final.Converged {
		t.Fatalf("session did not converge (step %d)", final.Step)
	}
	sameRows(t, snapshotRows(final), sssp.APSP(mirror, 0))
}
