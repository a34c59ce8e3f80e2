package core

import (
	"sync"
	"time"

	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/obs"
	"aacc/internal/pqueue"
	"aacc/internal/sssp"
)

// This file is the intra-processor worker pool. Every kernel of the engine
// that is independent per row — IA Dijkstra, the edge-addition sweep, both
// deletion invalidations and the reseed sweeps of deletions, vertex
// additions, repartitioning and failure recovery — is written once, as a
// runShards loop over the processor's rows, and runs at every pool size: with
// Options.Workers == 1 runShards calls the one shard inline on the
// processor's goroutine, with more it fans the shards out. The cluster
// runtime already spreads the P processors across host goroutines; this layer
// multiplies that by Workers within each one, the paper's "multithreaded
// Dijkstra". The RC relax (relax.go) is not sharded: it runs in place on the
// processor's goroutine, reading rows other rows of the same pass wrote, so
// its parallelism comes from the P processors.
//
// Determinism rules (DESIGN.md §6, "Worker-pool mode"):
//
//   - Fixed shard assignment: runShards splits [0,n) into contiguous ranges
//     with shard w always running on worker w, so the row→worker mapping is a
//     pure function of (n, workers), never of scheduling.
//   - Ordered merge: per-worker records (changed rows, changed-column lists,
//     recovery counters) are merged at the phase barrier by ascending worker
//     index. Shards are contiguous slices of the sorted local list, so the
//     merge replays rows in ascending row order at any pool size.
//   - Arena ownership: every mutable scratch (Dijkstra heap/row, changed-
//     column buffers, record arenas) is owned by one worker for the duration
//     of a phase; shared proc state (sparse sets, the meta and snapshot
//     maps) is only touched in the sequential pre/post passes around the
//     barrier.
//
// Each kernel writes only the rows of its own shard and reads nothing another
// shard writes, so its result is bit-identical at every pool size.

// workerScratch is one pool worker's private arena: Dijkstra scratch plus the
// per-shard record of (row, changed columns) produced inside a sharded phase,
// consumed by the sequential merge at the barrier. All slices are amortised
// across phases.
type workerScratch struct {
	heap    *pqueue.Heap
	scratch []int32    // Dijkstra distance row / pristine sweep copy
	changed []int32    // changed-column scratch, one row at a time
	rows    []graph.ID // recorded rows, in shard (= ascending) order
	cols    []int32    // concatenated changed columns of recorded rows
	offs    []int32    // offs[i] = end offset of rows[i]'s columns in cols
	n1, n2  int        // per-shard counters (e.g. recovery accounting)
}

// record appends one (row, changed columns) pair to the worker's shard
// record. cols is copied into the worker-owned arena.
func (ws *workerScratch) record(x graph.ID, cols []int32) {
	ws.rows = append(ws.rows, x)
	ws.cols = append(ws.cols, cols...)
	ws.offs = append(ws.offs, int32(len(ws.cols)))
}

// ensureWorkers readies the per-worker arenas for one sharded phase: one
// arena per pool worker, Dijkstra scratch sized to the engine width, and
// every worker's records and counters cleared, so a phase's merge never
// observes leftovers from a previous phase.
func (pr *proc) ensureWorkers(e *Engine) {
	if len(pr.ws) < e.workers {
		pr.ws = append(pr.ws, make([]workerScratch, e.workers-len(pr.ws))...)
	}
	for w := range pr.ws {
		ws := &pr.ws[w]
		if ws.heap == nil || len(ws.scratch) < e.width {
			c := 2 * e.width
			ws.heap = pqueue.New(c)
			ws.scratch = make([]int32, c)
		}
		ws.scratch = ws.scratch[:e.width]
		ws.rows = ws.rows[:0]
		ws.cols = ws.cols[:0]
		ws.offs = ws.offs[:0]
		ws.n1, ws.n2 = 0, 0
	}
}

// reseed re-derives local row x from a fresh local Dijkstra merged over its
// surviving entries (dst = min(dst, Dijkstra)), reusing every partial result.
// It returns the columns that decreased, valid until the worker's next use of
// ws.changed.
func (pr *proc) reseed(e *Engine, ws *workerScratch, x graph.ID) []int32 {
	sssp.DijkstraLocal(e.g, x, pr.isLocal, ws.scratch, ws.heap)
	ws.changed = dv.MergeMin(pr.store.Row(x), ws.scratch, ws.changed[:0])
	return ws.changed
}

// forEachRecord replays every worker's (row, cols) records in ascending
// worker order — the deterministic merge order: shards are contiguous ranges
// of a sorted row list, so this visits rows in ascending order. The cols view
// is only valid during the callback.
func (pr *proc) forEachRecord(fn func(x graph.ID, cols []int32)) {
	for w := range pr.ws {
		ws := &pr.ws[w]
		start := 0
		for i, x := range ws.rows {
			fn(x, ws.cols[start:ws.offs[i]])
			start = int(ws.offs[i])
		}
	}
}

// takeRows drains the bare row lists the workers appended to ws.rows (no
// column records) in ascending worker order.
func (pr *proc) takeRows() []graph.ID {
	var out []graph.ID
	for w := range pr.ws {
		out = append(out, pr.ws[w].rows...)
		pr.ws[w].rows = pr.ws[w].rows[:0]
	}
	return out
}

// shardBounds returns the half-open range of shard w when [0,n) is split
// into k contiguous shards.
func shardBounds(n, k, w int) (lo, hi int) {
	return w * n / k, (w + 1) * n / k
}

// runShards executes fn over [0,n) split into min(e.workers, n) contiguous
// shards, shard w pinned to worker w (worker 0 runs on the calling
// goroutine). It is a barrier: it returns when every shard finished. When imb
// is non-nil each shard is timed and the max/mean wall-clock ratio is
// observed — the per-phase shard-imbalance metric; with metrics disabled no
// timestamps are taken.
func (e *Engine) runShards(n int, imb *obs.Histogram, fn func(w, lo, hi int)) {
	k := e.workers
	if k > n {
		k = n
	}
	if k <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var durs []int64
	if imb != nil {
		durs = make([]int64, k)
	}
	run := func(w int) {
		lo, hi := shardBounds(n, k, w)
		if durs != nil {
			t := time.Now()
			fn(w, lo, hi)
			durs[w] = int64(time.Since(t))
		} else {
			fn(w, lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for w := 1; w < k; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
	if durs != nil {
		var sum, max int64
		for _, d := range durs {
			sum += d
			if d > max {
				max = d
			}
		}
		if sum > 0 {
			imb.Observe(float64(max) * float64(k) / float64(sum))
		}
	}
}
