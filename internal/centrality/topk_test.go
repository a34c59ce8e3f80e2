package centrality

import (
	"fmt"
	"math/rand"
	"testing"

	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

// TestTopKClamp pins the k-clamping behaviour of the full-scan TopK: query
// layers feed k straight from untrusted input, so out-of-range values must
// degrade instead of panicking (make([]graph.ID, k) with k < 0 used to).
func TestTopKClamp(t *testing.T) {
	scored := Scores{
		Classic:  []float64{0.5, 0.25, 0.75},
		Harmonic: []float64{1, 2, 3},
		Valid:    []bool{true, true, true},
	}
	invalid := Scores{
		Classic:  []float64{0.5, 0.25, 0.75},
		Harmonic: []float64{1, 2, 3},
		Valid:    []bool{false, false, false},
	}
	cases := []struct {
		name string
		s    Scores
		k    int
		want []graph.ID
	}{
		{"negative k", scored, -1, nil},
		{"negative k large", scored, -1 << 30, nil},
		{"zero k", scored, 0, nil},
		{"k within range", scored, 2, []graph.ID{2, 0}},
		{"k beyond n", scored, 10, []graph.ID{2, 0, 1}},
		{"all invalid", invalid, 2, nil},
		{"all invalid negative k", invalid, -5, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := TopK(tc.s, tc.s.Classic, tc.k)
			if len(got) != len(tc.want) {
				t.Fatalf("TopK k=%d: got %v, want %v", tc.k, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("TopK k=%d: got %v, want %v", tc.k, got, tc.want)
				}
			}
		})
	}
}

func topkTestGraph(t testing.TB, n int, maxW int32) (*graph.Graph, map[graph.ID][]int32) {
	t.Helper()
	g := gen.BarabasiAlbert(n, 2, 99, gen.Config{MaxWeight: maxW})
	return g, sssp.APSP(g, 1)
}

// TestBoundStateConvergedMatchesScan: with complete rows every interval
// collapses and the bound-based ranking bit-matches the full-scan TopK for
// both scorings, across a sweep of k including the clamp edges.
func TestBoundStateConvergedMatchesScan(t *testing.T) {
	g, dist := topkTestGraph(t, 120, 3)
	live, width := g.Vertices(), g.NumIDs()
	s := FromDistances(dist, live, width)
	bs := NewBoundState(dist, live, width, MinEdgeWeight(g))
	for _, v := range live {
		lo, hi, ok := bs.Bounds(v, true)
		if !ok || lo != s.Harmonic[v] || hi != s.Harmonic[v] {
			t.Fatalf("vertex %d harmonic bounds [%g,%g] != exact %g", v, lo, hi, s.Harmonic[v])
		}
		lo, hi, ok = bs.Bounds(v, false)
		if !ok || lo != s.Classic[v] || hi != s.Classic[v] {
			t.Fatalf("vertex %d classic bounds [%g,%g] != exact %g", v, lo, hi, s.Classic[v])
		}
	}
	for _, harmonic := range []bool{true, false} {
		values := s.Classic
		if harmonic {
			values = s.Harmonic
		}
		for _, k := range []int{-3, 0, 1, 5, 32, len(live), len(live) + 7} {
			res := bs.TopK(k, harmonic)
			want := TopK(s, values, k)
			if len(res.Entries) != len(want) {
				t.Fatalf("harmonic=%t k=%d: %d entries, want %d", harmonic, k, len(res.Entries), len(want))
			}
			for i, en := range res.Entries {
				if en.V != want[i] {
					t.Fatalf("harmonic=%t k=%d rank %d: got %d, want %d", harmonic, k, i, en.V, want[i])
				}
				if en.Score != values[want[i]] {
					t.Fatalf("harmonic=%t k=%d rank %d: score %g, want %g", harmonic, k, i, en.Score, values[want[i]])
				}
				if !en.Resolved {
					t.Fatalf("harmonic=%t k=%d rank %d unresolved on complete rows", harmonic, k, i)
				}
			}
			if res.Resolved != len(res.Entries) {
				t.Fatalf("harmonic=%t k=%d: resolved %d of %d on complete rows", harmonic, k, res.Resolved, len(res.Entries))
			}
		}
	}
}

// maskRows hides a fraction of off-diagonal entries (simulating mid-run
// partial rows, which only ever under-report reachability) and drops some
// rows entirely.
func maskRows(dist map[graph.ID][]int32, live []graph.ID, frac float64, rng *rand.Rand) map[graph.ID][]int32 {
	out := make(map[graph.ID][]int32, len(dist))
	for _, v := range live {
		if rng.Float64() < frac/8 {
			continue // vertex without a row
		}
		row := append([]int32(nil), dist[v]...)
		for u := range row {
			if graph.ID(u) != v && rng.Float64() < frac {
				row[u] = dv.Inf
			}
		}
		out[v] = row
	}
	return out
}

// TestBoundStateSyncMatchesRebuild drives the incremental Sync path through
// a sequence of monotone row improvements and checks it stays bit-identical
// to a from-scratch rebuild at every step.
func TestBoundStateSyncMatchesRebuild(t *testing.T) {
	g, exact := topkTestGraph(t, 100, 2)
	live, width := g.Vertices(), g.NumIDs()
	minW := MinEdgeWeight(g)
	rng := rand.New(rand.NewSource(7))

	prev := maskRows(exact, live, 0.9, rng)
	bs := NewBoundState(prev, live, width, minW)
	for epoch := 0; epoch < 6; epoch++ {
		// Reveal some masked entries (rows only ever tighten mid-run).
		next := make(map[graph.ID][]int32, len(prev))
		for v, row := range prev {
			cp := append([]int32(nil), row...)
			for u := range cp {
				if cp[u] == dv.Inf && exact[v][u] != dv.Inf && rng.Float64() < 0.4 {
					cp[u] = exact[v][u]
				}
			}
			next[v] = cp
		}
		bs.Sync(next, prev)
		fresh := NewBoundState(next, live, width, minW)
		for _, v := range live {
			glo, ghi, gok := bs.Bounds(v, true)
			wlo, whi, wok := fresh.Bounds(v, true)
			if gok != wok || glo != wlo || ghi != whi {
				t.Fatalf("epoch %d vertex %d: synced [%g,%g,%t] != rebuilt [%g,%g,%t]",
					epoch, v, glo, ghi, gok, wlo, whi, wok)
			}
		}
		prev = next
	}
}

// TestTopKResolutionSoundness is the pruning-correctness property: on
// partial rows, however the unknown pairs resolve (any distance ≥ minW, or
// staying unreachable), (a) the confirmed prefix matches the full-scan
// ranking of the resolved rows, and (b) no pruned vertex cracks the top k.
func TestTopKResolutionSoundness(t *testing.T) {
	g, exact := topkTestGraph(t, 80, 3)
	live, width := g.Vertices(), g.NumIDs()
	minW := MinEdgeWeight(g)
	rng := rand.New(rand.NewSource(11))
	const k = 8

	for trial := 0; trial < 20; trial++ {
		dist := maskRows(exact, live, 0.2+0.6*rng.Float64(), rng)
		bs := NewBoundState(dist, live, width, minW)
		res := bs.TopK(k, true)

		// Recompute the prune set the way the ranking defines it: the k-th
		// largest lower bound is the threshold; hi below it is out.
		var lows []float64
		for _, v := range live {
			if lo, _, ok := bs.Bounds(v, true); ok {
				lows = append(lows, lo)
			}
		}
		if len(lows) < k {
			continue
		}
		tau := kthLargest(lows, min(k, len(lows)))
		pruned := make(map[graph.ID]bool)
		for _, v := range live {
			if _, hi, ok := bs.Bounds(v, true); ok && hi < tau {
				pruned[v] = true
			}
		}
		if len(pruned) != res.Pruned {
			t.Fatalf("trial %d: result reports %d pruned, threshold says %d", trial, res.Pruned, len(pruned))
		}

		for resolve := 0; resolve < 10; resolve++ {
			resolved := make(map[graph.ID][]int32, len(dist))
			for v, row := range dist {
				cp := append([]int32(nil), row...)
				for u := range cp {
					if graph.ID(u) == v || cp[u] != dv.Inf {
						continue
					}
					if rng.Float64() < 0.7 {
						cp[u] = minW + int32(rng.Intn(20))
					}
				}
				resolved[v] = cp
			}
			s := FromDistances(resolved, live, width)
			full := TopK(s, s.Harmonic, res.Candidates)
			for i := 0; i < res.Resolved; i++ {
				if full[i] != res.Entries[i].V {
					t.Fatalf("trial %d resolve %d: resolved rank %d is %d, a resolution ranked %d there",
						trial, resolve, i, res.Entries[i].V, full[i])
				}
			}
			for i := 0; i < min(k, len(full)); i++ {
				if pruned[full[i]] {
					t.Fatalf("trial %d resolve %d: pruned vertex %d cracked rank %d", trial, resolve, full[i], i)
				}
			}
		}
	}
}

// TestBoundsBracketExact: masking entries of exact rows leaves the true
// score inside every vertex's interval (the frozen-known model is exact
// here because masking never perturbs a known value).
func TestBoundsBracketExact(t *testing.T) {
	g, exact := topkTestGraph(t, 90, 4)
	live, width := g.Vertices(), g.NumIDs()
	s := FromDistances(exact, live, width)
	rng := rand.New(rand.NewSource(3))
	dist := maskRows(exact, live, 0.5, rng)
	bs := NewBoundState(dist, live, width, MinEdgeWeight(g))
	for _, v := range live {
		for _, harmonic := range []bool{true, false} {
			lo, hi, ok := bs.Bounds(v, harmonic)
			if !ok {
				continue
			}
			want := s.Classic[v]
			if harmonic {
				want = s.Harmonic[v]
			}
			if want < lo || want > hi {
				t.Fatalf("vertex %d harmonic=%t: exact %g outside [%g, %g]", v, harmonic, want, lo, hi)
			}
		}
	}
}

func TestMinEdgeWeight(t *testing.T) {
	g := graph.New(3)
	if w := MinEdgeWeight(g); w != 1 {
		t.Fatalf("edgeless graph: min weight %d, want 1", w)
	}
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	if w := MinEdgeWeight(g); w != 3 {
		t.Fatalf("min weight %d, want 3", w)
	}
}

// BenchmarkTopKQuery compares bound-based top-k serving against the full
// FromDistances-scan path it replaces, on converged distances. The bound
// index aggregates rows incrementally at publish time, so answering a query
// is O(n log k) ranking work; the full scan re-aggregates every O(n²)
// distance entry per query. Build measures the one-off full-pass cost of
// the index itself.
func BenchmarkTopKQuery(b *testing.B) {
	g, dist := topkTestGraph(b, 600, 1)
	live, width := g.Vertices(), g.NumIDs()
	bs := NewBoundState(dist, live, width, MinEdgeWeight(g))
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("Bound/K%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bs.TopK(k, true)
				if len(res.Entries) != k {
					b.Fatalf("%d entries, want %d", len(res.Entries), k)
				}
			}
		})
		b.Run(fmt.Sprintf("FullScan/K%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := FromDistances(dist, live, width)
				if ids := TopK(s, s.Harmonic, k); len(ids) != k {
					b.Fatalf("%d ids, want %d", len(ids), k)
				}
			}
		})
	}
	b.Run("Build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bs = NewBoundState(dist, live, width, MinEdgeWeight(g))
		}
	})
}
