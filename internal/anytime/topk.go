package anytime

// Bound-based top-k serving. Each snapshot carries one
// centrality.BoundState over its own partial distance rows, built in one
// full pass by the first top-k read of that epoch (under the snapshot's
// sync.Once) and shared by every later reader, so queries rank lock-free
// against a consistent epoch. Publishing never touches the index: an epoch
// nobody ranks costs nothing, and a mutation needs no invalidation because
// the next snapshot starts without an index of its own.

import (
	"time"

	"aacc/internal/centrality"
)

// TopK answers a bound-based top-k closeness query from the current
// snapshot: the k highest-scoring vertices ranked with per-vertex
// lower/upper bounds and a confirmed-prefix marker (see
// centrality.BoundState.TopK). Safe for any number of goroutines.
func (s *Session) TopK(k int, harmonic bool) centrality.TopKResult {
	_, res := s.TopKAt(k, harmonic)
	return res
}

// TopKAt is TopK returning the snapshot the answer was computed from, so
// callers (the /topk endpoint) can report epoch/step/convergence
// consistently with the ranking.
func (s *Session) TopKAt(k int, harmonic bool) (*Snapshot, centrality.TopKResult) {
	start := time.Now()
	sn := s.Snapshot()
	res := sn.TopK(k, harmonic)
	if s.om != nil {
		s.om.topkQueries.Inc()
		s.om.topkLatency.ObserveDuration(time.Since(start))
		if res.Candidates > 0 {
			s.om.topkPruned.Observe(float64(res.Pruned) / float64(res.Candidates))
		}
		s.om.topkResolved.Set(float64(res.Resolved))
	}
	return sn, res
}

// TopK ranks the snapshot's k most central vertices from its closeness
// bounds in O(n log k), after the epoch's first reader built the index.
func (sn *Snapshot) TopK(k int, harmonic bool) centrality.TopKResult {
	return sn.index().TopK(k, harmonic)
}

// index returns the snapshot's bound index, building it on first use.
func (sn *Snapshot) index() *centrality.BoundState {
	sn.topkOnce.Do(func() {
		sn.topk = centrality.NewBoundState(sn.dist, sn.live, sn.width, sn.minW)
	})
	return sn.topk
}
