package anytime

import (
	"context"
	"testing"

	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
)

// boundsOf reads a snapshot's bound interval for v from its one index.
func boundsOf(sn *Snapshot, v graph.ID, harmonic bool) (float64, float64, bool) {
	return sn.index().Bounds(v, harmonic)
}

// TestTopKMatchesFullScanAtConvergence: the tentpole acceptance property —
// once the session converges, the bound-based ranking bit-matches the
// full-scan centrality.TopK for both scorings and a sweep of k, and every
// entry is resolved with a collapsed interval.
func TestTopKMatchesFullScanAtConvergence(t *testing.T) {
	g := gen.BarabasiAlbert(140, 2, 13, gen.Config{MaxWeight: 3})
	s := mustSession(t, g, Options{})
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, harmonic := range []bool{true, false} {
		for _, k := range []int{-2, 0, 1, 5, 32, 1000} {
			sn, res := s.TopKAt(k, harmonic)
			scores := sn.Scores()
			values := scores.Classic
			if harmonic {
				values = scores.Harmonic
			}
			want := centrality.TopK(scores, values, k)
			if len(res.Entries) != len(want) {
				t.Fatalf("harmonic=%t k=%d: %d entries, want %d", harmonic, k, len(res.Entries), len(want))
			}
			for i, en := range res.Entries {
				if en.V != want[i] || en.Score != values[want[i]] {
					t.Fatalf("harmonic=%t k=%d rank %d: got vertex %d score %g, want vertex %d score %g",
						harmonic, k, i, en.V, en.Score, want[i], values[want[i]])
				}
				if !en.Resolved || en.Lower != en.Score || en.Upper != en.Score {
					t.Fatalf("harmonic=%t k=%d rank %d: interval [%g,%g] resolved=%t at convergence",
						harmonic, k, i, en.Lower, en.Upper, en.Resolved)
				}
			}
			if res.Resolved != len(res.Entries) {
				t.Fatalf("harmonic=%t k=%d: resolved %d of %d at convergence", harmonic, k, res.Resolved, len(res.Entries))
			}
		}
	}
}

// TestTopKBoundsMonotone: absent mutations, across epochs, every vertex's
// lower bound is non-decreasing (both scorings) and the harmonic interval
// width is non-increasing. (Upper bounds are not individually monotone: a
// known distance tightening raises both ends of the harmonic interval —
// DESIGN.md §12 — and classic's denominator floor moves both ways mid-run.)
func TestTopKBoundsMonotone(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 17, gen.Config{MaxWeight: 2})
	s := mustSession(t, g, Options{StartPaused: true})
	s.TopK(5, true) // a first read; every snapshot builds its own index when first read
	type interval struct{ lo, hi float64 }
	last := make(map[graph.ID]map[bool]interval)
	check := func(sn *Snapshot) {
		for _, v := range sn.Vertices() {
			if last[v] == nil {
				last[v] = make(map[bool]interval)
			}
			for _, harmonic := range []bool{true, false} {
				lo, hi, ok := boundsOf(sn, v, harmonic)
				if !ok {
					t.Fatalf("epoch %d vertex %d: no bounds", sn.Epoch, v)
				}
				if prev, seen := last[v][harmonic]; seen {
					if lo < prev.lo {
						t.Fatalf("epoch %d vertex %d harmonic=%t: lower bound fell %g -> %g",
							sn.Epoch, v, harmonic, prev.lo, lo)
					}
					if harmonic && hi-lo > prev.hi-prev.lo {
						t.Fatalf("epoch %d vertex %d: width grew %g -> %g",
							sn.Epoch, v, prev.hi-prev.lo, hi-lo)
					}
				}
				last[v][harmonic] = interval{lo, hi}
			}
		}
	}
	sn := s.Snapshot()
	check(sn)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	for !sn.Converged {
		next, err := s.WaitFor(context.Background(), func(n *Snapshot) bool {
			return n.Epoch > sn.Epoch || n.Converged
		})
		if err != nil {
			t.Fatal(err)
		}
		sn = next
		check(sn)
	}
}

// TestTopKInvalidateOnMutation: after applied mutation batches the
// converged answer, ranked from the new epoch's own index, matches the full
// scan; the topk metric family is live.
func TestTopKInvalidateOnMutation(t *testing.T) {
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(120, 2, 25, gen.Config{})
	s, err := New(context.Background(), g, Options{Engine: core.Options{P: 4, Seed: 7, Obs: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.TopK(5, true)
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 0, V: 115, W: 1})); err != nil {
		t.Fatal(err)
	}
	if err := apply(s, core.EdgeDelete([2]graph.ID{0, 115})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	sn, res := s.TopKAt(5, true)
	scores := sn.Scores()
	want := centrality.TopK(scores, scores.Harmonic, 5)
	for i, en := range res.Entries {
		if en.V != want[i] {
			t.Fatalf("post-mutation rank %d: got %d, want %d", i, en.V, want[i])
		}
	}
	if got := reg.Counter("aacc_session_topk_queries_total", "").Value(); got < 2 {
		t.Errorf("topk_queries_total = %v, want >= 2", got)
	}
	if got := reg.Histogram("aacc_session_topk_query_seconds", "", nil).Count(); got < 2 {
		t.Errorf("topk latency histogram has %d observations, want >= 2", got)
	}
	if got := reg.Gauge("aacc_session_topk_resolved_k", "").Value(); got != float64(res.Resolved) {
		t.Errorf("topk_resolved_k = %v, want %d", got, res.Resolved)
	}
	if got := reg.Histogram("aacc_session_topk_pruned_fraction", "", nil).Count(); got < 2 {
		t.Errorf("pruned fraction histogram has %d observations, want >= 2", got)
	}
}

// TestSnapshotRowOutOfRange pins Snapshot.Row and Snapshot.Distance against
// untrusted vertex IDs: out-of-range and negative IDs return nil / Inf
// instead of panicking (they arrive straight from HTTP query input).
func TestSnapshotRowOutOfRange(t *testing.T) {
	g := testGraph(40)
	s := mustSession(t, g, Options{})
	sn, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []graph.ID{-1, -1 << 30, 40, 1 << 30} {
		if row := sn.Row(v); row != nil {
			t.Fatalf("Row(%d) = %v, want nil", v, row)
		}
	}
	if d := sn.Distance(-1, 0); d != dv.Inf {
		t.Fatalf("Distance(-1,0) = %d, want Inf", d)
	}
	if d := sn.Distance(0, -1); d != dv.Inf {
		t.Fatalf("Distance(0,-1) = %d, want Inf", d)
	}
	if d := sn.Distance(1<<30, 1<<30); d != dv.Inf {
		t.Fatalf("Distance(big,big) = %d, want Inf", d)
	}
	if row := sn.Row(0); row == nil {
		t.Fatal("Row(0) = nil for a live vertex")
	}
}
