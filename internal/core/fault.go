package core

import (
	"fmt"
	"time"

	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/metrics"
	"aacc/internal/sssp"
)

// This file implements the extensions the paper lists as future work:
// fault tolerance ("handle issues such as fault tolerance in the cloud and
// other parallel/distributed platforms") and load rebalancing ("develop
// graph rebalancing strategies to deal with load imbalances").

// FailureRecovery reports how a processor's state was rebuilt.
type FailureRecovery struct {
	// RowsLost is the number of distance-vector rows the failure destroyed.
	RowsLost int
	// RowsFromSnapshots counts rows partially recovered from the boundary
	// snapshots surviving processors held.
	RowsFromSnapshots int
	// EntriesRecovered counts distance entries salvaged from snapshots
	// (beyond what a fresh local Dijkstra provides).
	EntriesRecovered int
}

// FailProcessor simulates a checkpoint-free processor failure: processor p
// crashes and rejoins empty, losing every distance vector it held. Its rows
// are rebuilt from (a) the snapshots of its boundary rows that surviving
// processors still hold — valid upper bounds, since the graph did not
// change — merged entrywise, and (b) fresh local Dijkstra runs; the
// following RC steps re-converge to the exact fixpoint. Survivors reset the
// rejoined processor's snapshot bookkeeping so it receives full rows again.
func (e *Engine) FailProcessor(p int) (*FailureRecovery, error) {
	if e.Partial() {
		return nil, fmt.Errorf("core: FailProcessor is not supported on a partial (multi-process worker) engine; real worker crashes recover through the coordinator's rejoin protocol")
	}
	if p < 0 || p >= e.opts.P {
		return nil, fmt.Errorf("core: FailProcessor(%d) out of range [0,%d)", p, e.opts.P)
	}
	pr := e.procs[p]
	rec := &FailureRecovery{RowsLost: pr.store.Len()}

	// The crash: all of p's state is gone.
	pr.crash(e.width)

	// Survivors know p lost their snapshots: clear p's up-to-date bit so
	// the next contact ships a full row, and queue a re-send of every row
	// p depends on (otherwise an unchanged survivor row would never flow
	// back and p could converge on stale salvage).
	pBit := uint64(1) << uint(p)
	for q, other := range e.procs {
		if q == p {
			continue
		}
		for _, st := range other.meta {
			st.upToDate &^= pBit
		}
		for _, v := range other.local {
			if e.peerMask(v)&pBit != 0 {
				other.dirtySend.Add(v)
			}
		}
	}

	// Recovery phase 1: salvage p's boundary rows from survivors'
	// snapshots (each shipped point-to-point to the rejoined processor).
	recovered := make(map[graph.ID][]int32)
	for q, other := range e.procs {
		if q == p {
			continue
		}
		for v, snap := range other.ext {
			if e.Owner(v) != p {
				continue
			}
			e.rt.AccountPointToPoint(4 + 4*len(snap))
			row := recovered[v]
			if row == nil {
				row = make([]int32, e.width)
				for t := range row {
					row[t] = dv.Inf
				}
				recovered[v] = row
			}
			pr.changedBuf = dv.MergeMin(row, snap, pr.changedBuf[:0])
		}
	}

	// Recovery phase 2: rebuild every local row — salvaged snapshot merged
	// with a fresh local Dijkstra — and queue everything for exchange. Rows
	// are pre-created sequentially, the salvage-merge and Dijkstra sweeps
	// shard over the pool with per-worker recovery counters summed in worker
	// order, and the bookkeeping runs after the barrier.
	start := time.Now()
	for _, v := range pr.local {
		pr.store.AddRow(v)
	}
	pr.ensureWorkers(e)
	e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		for _, v := range pr.local[lo:hi] {
			row := pr.store.Row(v)
			if salv := recovered[v]; salv != nil {
				ws.n1++
				ws.changed = dv.MergeMin(row, salv, ws.changed[:0])
			}
			sssp.DijkstraLocal(e.g, v, pr.isLocal, ws.scratch, ws.heap)
			for t, d := range ws.scratch {
				if d < row[t] {
					row[t] = d
				} else if row[t] < d && row[t] != dv.Inf && graph.ID(t) != v {
					ws.n2++
				}
			}
		}
	})
	for w := range pr.ws {
		rec.RowsFromSnapshots += pr.ws[w].n1
		rec.EntriesRecovered += pr.ws[w].n2
	}
	for _, v := range pr.local {
		pr.noteRowFull(v)
	}
	e.rt.AccountCompute(time.Since(start))
	e.rec.Record("core", "processor-failure", e.SpanKey(),
		fmt.Sprintf("processor %d lost %d rows, %d salvaged from snapshots", p, rec.RowsLost, rec.RowsFromSnapshots))
	e.conv = false
	return rec, nil
}

// Imbalance returns the current per-processor load statistics.
func (e *Engine) Imbalance() metrics.Load {
	return metrics.Measure(e.g, e.opts.P, func(v graph.ID) int { return e.Owner(v) })
}

// RebalanceIfNeeded repartitions the graph (Repartition-S with no batch)
// when the vertex imbalance exceeds threshold (e.g. 1.2 = any processor 20%
// above its share). It reports whether a rebalance ran. This is the
// rebalancing strategy the paper leaves as future work: dynamic changes —
// especially skewed vertex additions — erode the initial partition, and the
// anytime property makes repartitioning cheap because every partial result
// migrates instead of being recomputed.
func (e *Engine) RebalanceIfNeeded(threshold float64) (bool, error) {
	if threshold < 1 {
		return false, fmt.Errorf("core: rebalance threshold %.3f must be >= 1", threshold)
	}
	if e.Imbalance().VertexImbalance <= threshold {
		return false, nil
	}
	if err := e.ApplyBatch(&Batch{Ops: []Mutation{RepartitionOp(nil)}}); err != nil {
		return false, err
	}
	return true, nil
}
