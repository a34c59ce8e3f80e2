package centrality

// Bound-based top-k closeness serving. The anytime engine's distance rows
// are per-pair upper bounds that only tighten as RC steps advance (absent
// deletions), so a partial row pins each vertex's closeness inside an
// interval without waiting for convergence:
//
//   - the known entries, taken at face value, give the score the snapshot
//     itself would report (FromDistances) — the LOWER bound for harmonic
//     closeness, since resolving an unknown pair can only add 1/d ≥ 0;
//   - every unknown pair can contribute at most 1/minW (no finite distance
//     is below the smallest edge weight), giving the UPPER bound.
//
// Ranking by lower bound and pruning every vertex whose upper bound cannot
// beat the k-th lower bound answers "who are the k most central vertices"
// long before the distance matrix is complete — the Olsen/Labouseur/Hwang
// heap-of-upper-bounds scheme and Bisenius et al.'s fully-dynamic top-k
// transplanted onto the paper's partial distance rows. A rank is *resolved*
// when no lower-ranked vertex's upper bound can overtake it under any
// resolution of the still-unknown pairs; the unresolved tail is served too,
// marked contended. At convergence every interval collapses to the exact
// score, so the ranking bit-matches the full-scan TopK.

import (
	"sort"

	"aacc/internal/dv"
	"aacc/internal/graph"
)

// BoundState holds per-vertex closeness bounds derived from a set of
// distance rows. It is built in one full pass (NewBoundState) and is
// immutable afterwards: each anytime snapshot builds its own on the first
// top-k read and shares it with every later reader, so answering a query
// is O(n log k) ranking work instead of a full Scores scan. The zero value
// is not usable.
//
// Aggregation order matches FromDistances exactly (live-slice order per
// row), so a fully-known row's bounds collapse to bit-identical Scores
// values.
type BoundState struct {
	width int
	minW  int32
	live  []graph.ID
	valid []bool    // vertex had a row
	known []int32   // finite off-diagonal entries toward live targets
	sum   []int64   // Σ of those entries (classic closeness denominator)
	harm  []float64 // Σ 1/d over those entries (harmonic lower bound)
}

// NewBoundState builds bounds for every live vertex from dist in one full
// pass. live lists the target vertices (ascending, as graph.Vertices
// returns); width is the ID-space size; minW is the smallest live edge
// weight (see MinEdgeWeight), clamped to ≥ 1. A live vertex without a row
// in dist stays unscored.
func NewBoundState(dist map[graph.ID][]int32, live []graph.ID, width int, minW int32) *BoundState {
	if minW < 1 {
		minW = 1
	}
	b := &BoundState{
		width: width,
		minW:  minW,
		live:  append([]graph.ID(nil), live...),
		valid: make([]bool, width),
		known: make([]int32, width),
		sum:   make([]int64, width),
		harm:  make([]float64, width),
	}
	for _, v := range b.live {
		row := dist[v]
		if row == nil || int(v) >= width || v < 0 {
			continue
		}
		var sum int64
		var harm float64
		var known int32
		for _, u := range b.live {
			if u == v || int(u) >= len(row) {
				continue
			}
			d := row[u]
			if d == dv.Inf {
				continue
			}
			sum += int64(d)
			harm += 1 / float64(d)
			known++
		}
		b.valid[v] = true
		b.known[v] = known
		b.sum[v] = sum
		b.harm[v] = harm
	}
	return b
}

// MinW returns the minimum-edge-weight floor the unknown-pair bound uses.
func (b *BoundState) MinW() int32 { return b.minW }

// Unknown returns how many of v's pair distances are still unresolved.
func (b *BoundState) Unknown(v graph.ID) int {
	if int(v) >= b.width || v < 0 || !b.valid[v] {
		return 0
	}
	return len(b.live) - 1 - int(b.known[v])
}

// Bounds returns [lower, upper] for v's closeness under the current rows:
// any resolution of the still-unknown pairs (each contributing a distance in
// [minW, ∞]) lands the score inside the interval. ok is false for vertices
// without a row. Harmonic intervals shrink monotonically as rows tighten;
// classic closeness is 0 until a row is complete, so its lower bound stays 0
// (and only the upper bound is informative) before full coverage.
func (b *BoundState) Bounds(v graph.ID, harmonic bool) (lower, upper float64, ok bool) {
	if int(v) >= b.width || v < 0 || !b.valid[v] {
		return 0, 0, false
	}
	unknown := float64(len(b.live)-1) - float64(b.known[v])
	if harmonic {
		lower = b.harm[v]
		upper = lower + unknown/float64(b.minW)
		return lower, upper, true
	}
	// Classic: C(v) = 1/Σd once every live target is reached, else 0.
	if unknown == 0 {
		if b.sum[v] > 0 {
			lower = 1 / float64(b.sum[v])
		}
		return lower, lower, true
	}
	den := float64(b.sum[v]) + unknown*float64(b.minW)
	if den > 0 {
		upper = 1 / den
	}
	return 0, upper, true
}

// TopKEntry is one ranked vertex of a bound-based top-k answer.
type TopKEntry struct {
	V graph.ID `json:"vertex"`
	// Score is the snapshot's own value for V (what Scores would report);
	// at convergence it is the exact closeness.
	Score float64 `json:"score"`
	// Lower and Upper bracket the score under any resolution of V's
	// still-unknown pair distances.
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
	// Resolved marks ranks that no other vertex's upper bound can overtake:
	// the confirmed prefix of the ranking.
	Resolved bool `json:"resolved"`
}

// TopKResult is a ranked bound-based top-k answer.
type TopKResult struct {
	// K is the effective k after clamping to [0, Candidates].
	K int `json:"k"`
	// Harmonic reports the scoring (harmonic vs classic closeness).
	Harmonic bool `json:"harmonic"`
	// Candidates counts the scored vertices considered.
	Candidates int `json:"candidates"`
	// Pruned counts candidates skipped because their upper bound cannot
	// beat the k-th lower bound under any resolution of unknown pairs.
	Pruned int `json:"pruned"`
	// Resolved is the confirmed-prefix length: Entries[:Resolved] cannot be
	// reordered or displaced by any resolution of the unknown pairs.
	Resolved int `json:"resolved"`
	// Entries is the ranking (score descending, ties by ascending ID) —
	// the same order the full-scan TopK produces at convergence.
	Entries []TopKEntry `json:"entries"`
}

// TopK ranks the k highest-scoring vertices from the bounds. Candidates
// whose upper bound cannot reach the k-th largest lower bound are pruned
// without entering the sort; the survivors are ranked by lower bound (score
// descending, ties by ID) and the confirmed prefix is computed against
// every survivor's upper bound. k < 0 is clamped to 0, k > candidates to
// the candidate count.
func (b *BoundState) TopK(k int, harmonic bool) TopKResult {
	res := TopKResult{Harmonic: harmonic}
	if k < 0 {
		k = 0
	}
	lows := make([]float64, 0, len(b.live))
	ups := make([]float64, 0, len(b.live))
	cand := make([]graph.ID, 0, len(b.live))
	for _, v := range b.live {
		lo, hi, ok := b.Bounds(v, harmonic)
		if !ok {
			continue
		}
		cand = append(cand, v)
		lows = append(lows, lo)
		ups = append(ups, hi)
	}
	res.Candidates = len(cand)
	if k > len(cand) {
		k = len(cand)
	}
	res.K = k
	if k == 0 {
		res.Entries = []TopKEntry{}
		return res
	}

	// Prune threshold: the k-th largest lower bound, via a size-k min-heap.
	tau := kthLargest(lows, k)

	// Survivors keep every candidate whose upper bound could still matter
	// (hi ≥ tau keeps boundary ties; everyone with lo ≥ tau survives since
	// hi ≥ lo). A pruned vertex has hi < tau ≤ every ranked lower bound, so
	// it can neither crack the top k nor threaten a resolved rank.
	type scored struct {
		v      graph.ID
		lo, hi float64
	}
	surv := make([]scored, 0, len(cand))
	for i, v := range cand {
		if ups[i] >= tau {
			surv = append(surv, scored{v: v, lo: lows[i], hi: ups[i]})
		}
	}
	res.Pruned = len(cand) - len(surv)
	sort.Slice(surv, func(i, j int) bool {
		if surv[i].lo != surv[j].lo {
			return surv[i].lo > surv[j].lo
		}
		return surv[i].v < surv[j].v
	})

	// threat[i]: the strongest upper bound below rank i — the largest hi
	// over ranks > i and, among its achievers, the smallest ID (which wins
	// a tie against an equal lower bound).
	type threat struct {
		hi float64
		id graph.ID
	}
	threats := make([]threat, len(surv))
	cur := threat{hi: -1, id: graph.ID(b.width)}
	for i := len(surv) - 1; i >= 0; i-- {
		threats[i] = cur
		switch {
		case surv[i].hi > cur.hi:
			cur = threat{hi: surv[i].hi, id: surv[i].v}
		case surv[i].hi == cur.hi && surv[i].v < cur.id:
			cur.id = surv[i].v
		}
	}

	n := min(k, len(surv))
	res.Entries = make([]TopKEntry, n)
	resolvedPrefix := true
	for i := 0; i < n; i++ {
		s := surv[i]
		// Rank i is safe when nothing below can end up strictly above it:
		// a lower-ranked hi above lo overtakes outright; an equal hi with a
		// smaller ID wins the tie-break.
		safe := threats[i].hi < s.lo || (threats[i].hi == s.lo && threats[i].id > s.v)
		resolvedPrefix = resolvedPrefix && safe
		if resolvedPrefix {
			res.Resolved++
		}
		res.Entries[i] = TopKEntry{V: s.v, Score: s.lo, Lower: s.lo, Upper: s.hi, Resolved: resolvedPrefix}
	}
	return res
}

// kthLargest returns the k-th largest value of xs (k ≥ 1, k ≤ len(xs))
// using a size-k min-heap — O(n log k), no full sort.
func kthLargest(xs []float64, k int) float64 {
	h := make([]float64, 0, k)
	for _, x := range xs {
		if len(h) < k {
			h = append(h, x)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p] <= h[i] {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if x <= h[0] {
			continue
		}
		h[0] = x
		// Sift down.
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && h[l] < h[small] {
				small = l
			}
			if r < len(h) && h[r] < h[small] {
				small = r
			}
			if small == i {
				break
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	return h[0]
}

// MinEdgeWeight returns the smallest live edge weight of g (1 when g has no
// edges) — the distance floor the unknown-pair upper bounds rest on.
func MinEdgeWeight(g graph.View) int32 {
	minW := int32(0)
	for _, v := range g.Vertices() {
		for _, e := range g.Neighbors(v) {
			if minW == 0 || e.W < minW {
				minW = e.W
			}
		}
	}
	if minW < 1 {
		minW = 1
	}
	return minW
}
