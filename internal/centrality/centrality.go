// Package centrality computes closeness centrality from distance data and
// provides the exact sequential oracle plus the quality metrics the anytime
// experiments report (rank correlation, top-k overlap, distance error).
package centrality

import (
	"math"
	"sort"

	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

// Scores holds per-vertex centrality values keyed by vertex ID. Dead or
// unscored vertices hold NaN-free zero values and Valid=false.
type Scores struct {
	// Classic is the paper's closeness: C(v) = 1 / Σ_u d(v,u). It is 0
	// when v does not (yet) reach every other live vertex.
	Classic []float64
	// Harmonic is Σ_u 1/d(v,u), which degrades gracefully under
	// unreachability and partial (anytime) results.
	Harmonic []float64
	// Valid marks vertices that were scored (live with a distance row).
	Valid []bool
}

// FromDistances computes closeness from per-vertex distance rows (as
// returned by the engine or the oracle). live lists the vertices that count
// as targets; rows missing from dist are skipped.
func FromDistances(dist map[graph.ID][]int32, live []graph.ID, width int) Scores {
	s := Scores{
		Classic:  make([]float64, width),
		Harmonic: make([]float64, width),
		Valid:    make([]bool, width),
	}
	for _, v := range live {
		row := dist[v]
		if row == nil {
			continue
		}
		var sum int64
		var harmonic float64
		reached := 0
		for _, u := range live {
			if u == v || int(u) >= len(row) {
				continue
			}
			d := row[u]
			if d == dv.Inf {
				continue
			}
			sum += int64(d)
			harmonic += 1 / float64(d)
			reached++
		}
		s.Valid[v] = true
		s.Harmonic[v] = harmonic
		if reached == len(live)-1 && sum > 0 {
			s.Classic[v] = 1 / float64(sum)
		}
	}
	return s
}

// Exact computes exact closeness on g with a parallel Dijkstra APSP —
// the test and quality oracle (and the baseline-restart kernel's scoring).
func Exact(g graph.View, workers int) Scores {
	dist := sssp.APSP(g, workers)
	return FromDistances(dist, g.Vertices(), g.NumIDs())
}

// TopK returns the k highest-scoring valid vertices, ties broken by ID.
// k is clamped to [0, number of valid vertices]: query layers feed k
// straight from untrusted input, so a negative k returns an empty ranking
// instead of panicking.
func TopK(s Scores, values []float64, k int) []graph.ID {
	if k < 0 {
		k = 0
	}
	type pair struct {
		v graph.ID
		x float64
	}
	var ps []pair
	for v := range values {
		if s.Valid[v] {
			ps = append(ps, pair{v: graph.ID(v), x: values[v]})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].x != ps[j].x {
			return ps[i].x > ps[j].x
		}
		return ps[i].v < ps[j].v
	})
	if k > len(ps) {
		k = len(ps)
	}
	out := make([]graph.ID, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].v
	}
	return out
}

// TopKOverlap returns |topK(a) ∩ topK(b)| / k for the harmonic scores —
// the anytime quality metric for "have we found the right central actors".
func TopKOverlap(a, b Scores, k int) float64 {
	ta := TopK(a, a.Harmonic, k)
	tb := TopK(b, b.Harmonic, k)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	set := make(map[graph.ID]bool, len(ta))
	for _, v := range ta {
		set[v] = true
	}
	hit := 0
	for _, v := range tb {
		if set[v] {
			hit++
		}
	}
	den := len(ta)
	if len(tb) < den {
		den = len(tb)
	}
	return float64(hit) / float64(den)
}

// Spearman computes the Spearman rank correlation of two score vectors over
// the vertices valid in both. Returns 0 when fewer than two vertices match.
func Spearman(aValid, bValid []bool, a, b []float64) float64 {
	var idx []int
	for v := range a {
		if v < len(b) && aValid[v] && bValid[v] {
			idx = append(idx, v)
		}
	}
	n := len(idx)
	if n < 2 {
		return 0
	}
	ra := ranks(idx, a)
	rb := ranks(idx, b)
	// Pearson correlation of the ranks (handles ties via mid-ranks).
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 1 // constant ranks: identical orderings
	}
	return cov / math.Sqrt(va*vb)
}

func ranks(idx []int, x []float64) []float64 {
	order := append([]int(nil), idx...)
	sort.Slice(order, func(i, j int) bool { return x[order[i]] < x[order[j]] })
	rank := make(map[int]float64, len(order))
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && x[order[j]] == x[order[i]] {
			j++
		}
		mid := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			rank[order[k]] = mid
		}
		i = j
	}
	out := make([]float64, len(idx))
	for i, v := range idx {
		out[i] = rank[v]
	}
	return out
}

// DistanceError summarises how far estimate rows are above the exact rows:
// mean relative error over finite exact entries plus the count of entries
// still at Inf in the estimate but finite exactly ("unknown pairs").
type DistanceError struct {
	MeanRelative float64
	Unknown      int
	Compared     int
}

// CompareDistances measures estimate quality against exact rows.
func CompareDistances(estimate, exact map[graph.ID][]int32) DistanceError {
	var de DistanceError
	var relSum float64
	ids := make([]graph.ID, 0, len(exact))
	for v := range exact {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		ex := exact[v]
		est := estimate[v]
		if est == nil {
			continue
		}
		for t := range ex {
			if ex[t] == dv.Inf || t == int(v) {
				continue
			}
			de.Compared++
			if t >= len(est) || est[t] == dv.Inf {
				de.Unknown++
				continue
			}
			relSum += float64(est[t]-ex[t]) / float64(ex[t])
		}
	}
	if de.Compared > 0 {
		de.MeanRelative = relSum / float64(de.Compared)
	}
	return de
}
