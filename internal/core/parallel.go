package core

import (
	"slices"
	"sync"
	"time"

	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/obs"
	"aacc/internal/pqueue"
	"aacc/internal/sssp"
)

// This file is the intra-processor worker pool: with Options.Workers > 1 the
// hot per-vertex loops — IA Dijkstra, the install/relax scans, and the reseed
// sweeps of deletions, vertex additions, repartitioning and failure recovery —
// shard their row ranges across a pool of goroutines inside each simulated
// processor. The cluster runtime already fans the P processors out across host
// goroutines; this layer multiplies that by Workers within each one, the
// paper's "multithreaded Dijkstra" applied to every kernel.
//
// Determinism rules (DESIGN.md §6, "Parallel-mode determinism"):
//
//   - Fixed shard assignment: runShards splits [0,n) into contiguous ranges
//     with shard w always running on worker w, so the row→worker mapping is a
//     pure function of (n, workers), never of scheduling.
//   - Ordered merge: per-worker records (changed rows, changed-column lists,
//     recovery counters) are merged at the phase barrier by ascending worker
//     index. Shards are contiguous slices of the sorted local list, so the
//     merge replays rows in exactly the sequential path's ascending order.
//   - Arena ownership: every mutable scratch (Dijkstra heap/row, changed-
//     column buffers, record arenas) is owned by one worker for the duration
//     of a phase; shared proc state (sparse sets, meta maps, pendingRescan)
//     is only touched in the sequential pre/post passes around the barrier.
//   - Snapshot sources: the parallel relax freezes every local source row
//     (value-snapshotting its changed columns, or the whole row for full
//     sources) before fanning out, so shard workers never read a row another
//     worker writes. The sequential path relaxes in place (Gauss–Seidel);
//     the frozen-source pass (Jacobi) may propagate an improvement one step
//     later, but both are monotone min-plus iterations over the same source
//     notes, so they reach the same exact fixpoint: converged Distances and
//     Scores are bit-identical at any worker count, and all worker counts
//     > 1 agree with each other at every step.

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

func (ws *workerScratch) ensure(width int) {
	if ws.heap == nil || len(ws.scratch) < width {
		c := 2 * width
		ws.heap = pqueue.New(c)
		ws.scratch = make([]int32, c)
	}
	ws.scratch = ws.scratch[:width]
}

// record appends one (row, changed columns) pair to the worker's shard
// record. cols is copied into the worker-owned arena.
func (ws *workerScratch) record(x graph.ID, cols []int32) {
	ws.rows = append(ws.rows, x)
	ws.cols = append(ws.cols, cols...)
	ws.offs = append(ws.offs, int32(len(ws.cols)))
}

// ensureWorkers sizes the per-worker arenas to the engine's pool and clears
// every worker's records and counters, so a phase's merge never observes
// leftovers from a previous (possibly wider) phase.
func (pr *proc) ensureWorkers(e *Engine) {
	if len(pr.ws) < e.workers {
		pr.ws = append(pr.ws, make([]workerScratch, e.workers-len(pr.ws))...)
	}
	for w := range pr.ws {
		ws := &pr.ws[w]
		ws.rows = ws.rows[:0]
		ws.cols = ws.cols[:0]
		ws.offs = ws.offs[:0]
		ws.n1, ws.n2 = 0, 0
	}
}

// forEachRecord replays every worker's (row, cols) records in ascending
// worker order — the deterministic merge order: shards are contiguous ranges
// of a sorted row list, so this visits rows exactly as the sequential path
// would. The cols view is only valid during the callback.
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

// relaxParallel is the worker-pool variant of relax: phase A shards the
// source scans over the pool against a frozen source list, phase B runs the
// DVR rescan cascade and the dirty bookkeeping sequentially in ascending row
// order. See the determinism rules at the top of this file for why the two
// phases split exactly here: the scans only write their own row, while the
// cascade reads live local rows and the bookkeeping mutates shared sets.
func (pr *proc) relaxParallel(e *Engine) int {
	sources := pr.gatherSourcesSnapshot()
	if len(sources) == 0 && len(pr.pendingRescan) == 0 {
		pr.releaseSnapshots()
		return 0
	}
	pr.ensureWorkers(e)
	e.runShards(len(pr.local), e.shardImbInstall(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		for _, x := range pr.local[lo:hi] {
			row := pr.store.Row(x)
			changed := ws.changed[:0]
			for _, s := range sources {
				if s.id == x {
					continue
				}
				d := row[s.id]
				if d >= dv.Inf {
					continue
				}
				switch {
				case s.cols == nil:
					changed = dv.ScanFull(row, d, s.row, changed)
				case s.vals != nil:
					changed = dv.ScanColVals(row, d, s.cols, s.vals, changed)
				default:
					changed = dv.ScanCols(row, d, s.row, s.cols, changed)
				}
			}
			changed = dedupCols(changed)
			ws.changed = changed
			// pendingRescan is read-only during the fan-out (mutation paths
			// populated it before the step); rows with queued rescans join
			// the cascade even when the scans changed nothing.
			if len(changed) == 0 && pr.pendingRescan[x] == nil {
				continue
			}
			ws.record(x, changed)
		}
	})
	pr.releaseSnapshots()
	changedRows := 0
	pr.forEachRecord(func(x graph.ID, cols []int32) {
		changed := append(pr.changedBuf[:0], cols...)
		changed = pr.cascadeRescans(x, pr.store.Row(x), changed)
		changed = dedupCols(changed)
		pr.changedBuf = changed
		if len(changed) > 0 {
			changedRows++
			pr.noteRowChanged(e, x, changed, false)
		}
	})
	clear(pr.pendingRescan)
	return changedRows
}

// gatherSourcesSnapshot is gatherSources for the parallel relax: the same
// deterministic drain of pending external deltas and dirty local rows, except
// local sources are frozen — delta sources get a (cols, vals) value snapshot
// in the arena, full sources a pooled whole-row copy — because shard workers
// will concurrently rewrite the live local rows they'd otherwise scan.
// External snapshots stay live: nothing writes them during relax.
func (pr *proc) gatherSourcesSnapshot() []relaxSource {
	n := len(pr.extPending) + pr.dirtySrc.Len()
	if n == 0 {
		return nil
	}
	if cap(pr.srcBuf) < n {
		pr.srcBuf = make([]relaxSource, 0, n)
	}
	sources := pr.srcBuf[:0]
	pr.srcArena = pr.srcArena[:0]
	pr.idBuf = pr.idBuf[:0]
	for v := range pr.extPending {
		pr.idBuf = append(pr.idBuf, v)
	}
	slices.Sort(pr.idBuf)
	for _, id := range pr.idBuf {
		p := pr.extPending[id]
		src := relaxSource{id: id, row: pr.ext[id]}
		if !p.full {
			src.cols = arenaCopy(&pr.srcArena, p.cols.Sorted())
		}
		p.cols.Reset()
		p.full = false
		pr.pendingPool = append(pr.pendingPool, p)
		sources = append(sources, src)
	}
	clear(pr.extPending)
	for _, id := range pr.dirtySrc.Sorted() {
		st := pr.state(id)
		src := relaxSource{id: id, row: pr.store.Row(id)}
		if !st.srcFull {
			src.cols = arenaCopy(&pr.srcArena, st.srcCols.Sorted())
			a := len(pr.srcArena)
			for _, c := range src.cols {
				pr.srcArena = append(pr.srcArena, src.row[c])
			}
			src.vals = pr.srcArena[a:len(pr.srcArena):len(pr.srcArena)]
		} else {
			snap := pr.newRowCopy(src.row)
			pr.snapRows = append(pr.snapRows, snap)
			src.row = snap
		}
		st.srcCols.Reset()
		st.srcFull = false
		sources = append(sources, src)
	}
	pr.dirtySrc.Clear()
	pr.srcBuf = sources
	return sources
}

// releaseSnapshots recycles the full-row source snapshots taken by
// gatherSourcesSnapshot back into the row pool.
func (pr *proc) releaseSnapshots() {
	for i, r := range pr.snapRows {
		pr.recycleRow(r)
		pr.snapRows[i] = nil
	}
	pr.snapRows = pr.snapRows[:0]
}

// relaxThroughEdgesShards is the worker-pool variant of relaxThroughEdges.
// The endpoint rows are pre-broadcast snapshots and each row relaxes
// independently through them, so the sharded pass is bit-identical to the
// sequential one per row; only the dirty bookkeeping moves to the ordered
// merge. Returns the number of changed local rows.
func (pr *proc) relaxThroughEdgesShards(e *Engine, edges []graph.EdgeTriple, endRows map[graph.ID][]int32) int {
	pr.ensureWorkers(e)
	e.runShards(len(pr.local), e.shardImbInstall(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		for _, x := range pr.local[lo:hi] {
			row := pr.store.Row(x)
			changed := ws.changed[:0]
			for _, ed := range edges {
				changed = relaxRowThroughEdge(row, ed.U, ed.W, endRows[ed.V], changed)
				changed = relaxRowThroughEdge(row, ed.V, ed.W, endRows[ed.U], changed)
			}
			if len(changed) > 0 {
				changed = dedupCols(changed)
				ws.record(x, changed)
			}
			ws.changed = changed
		}
	})
	changedRows := 0
	pr.forEachRecord(func(x graph.ID, cols []int32) {
		changedRows++
		pr.noteRowChanged(e, x, cols, true)
	})
	return changedRows
}

// invalidateAndReseedShards is the worker-pool variant of the barrier-mode
// deletion sweep body (see invalidateAndReseed). Row sweeps and Dijkstra
// reseeds shard across the pool — every worker sweeps against its own
// pristine copy in ws.scratch — while the copy-on-write of shared snapshots,
// the dirty bookkeeping and the final full relax stay sequential.
func (pr *proc) invalidateAndReseedShards(e *Engine, batch []graph.EdgeTriple, endRows map[graph.ID][]int32) map[graph.ID]bool {
	pr.ensureWorkers(e)
	sweep := func(ws *workerScratch, row []int32, self graph.ID) int {
		copy(ws.scratch, row)
		n := 0
		for _, ed := range batch {
			n += invalidateThroughEdge(ws.scratch, row, self, ed.U, ed.V, ed.W, endRows[ed.U], endRows[ed.V])
		}
		return n
	}
	// Phase 1: invalidate every stored row before any re-derivation, so no
	// relaxation can re-poison entries from a not-yet-swept row. Local rows
	// first, hits harvested in shard order (= ascending row order).
	e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		ws.ensure(e.width)
		for _, x := range pr.local[lo:hi] {
			if sweep(ws, pr.store.Row(x), x) > 0 {
				ws.rows = append(ws.rows, x)
			}
		}
	})
	var hit []graph.ID
	for w := range pr.ws {
		hit = append(hit, pr.ws[w].rows...)
		pr.ws[w].rows = pr.ws[w].rows[:0]
	}
	for _, x := range hit {
		pr.noteRowFull(x)
	}
	// External snapshots: copy-on-write sequentially (map writes, row pool),
	// then shard the sweeps over the frozen id list.
	swept := pr.idBuf[:0]
	for _, s := range sortedExtIDs(pr.ext) {
		row := pr.ext[s]
		if len(row) < e.width {
			continue // stale narrow snapshot; owner will refresh
		}
		if pr.extShared.Has(s) {
			pr.ext[s] = pr.newRowCopy(row)
			pr.extShared.Clear(s)
		}
		swept = append(swept, s)
	}
	pr.idBuf = swept
	e.runShards(len(swept), nil, func(w, lo, hi int) {
		ws := &pr.ws[w]
		ws.ensure(e.width)
		for _, s := range swept[lo:hi] {
			if sweep(ws, pr.ext[s], s) > 0 {
				ws.rows = append(ws.rows, s)
			}
		}
	})
	holes := make(map[graph.ID]bool)
	for w := range pr.ws {
		for _, s := range pr.ws[w].rows {
			holes[s] = true
		}
	}
	if len(hit) == 0 {
		return holes
	}
	// Phase 2: shard the Dijkstra reseeds (disjoint rows), then relax each
	// hit row through every held source sequentially — the relax reads live
	// local rows, which is exactly what the fan-out must not do.
	sources := make([]relaxSource, 0, len(pr.ext)+len(pr.local))
	for _, s := range sortedExtIDs(pr.ext) {
		sources = append(sources, relaxSource{id: s, row: pr.ext[s]})
	}
	for _, s := range pr.local {
		sources = append(sources, relaxSource{id: s, row: pr.store.Row(s)})
	}
	e.runShards(len(hit), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		ws.ensure(e.width)
		for _, x := range hit[lo:hi] {
			sssp.DijkstraLocal(e.g, x, pr.isLocal, ws.scratch, ws.heap)
			mergeMin(pr.store.Row(x), ws.scratch)
		}
	})
	for _, x := range hit {
		pr.relaxRowSources(x, sources)
	}
	return holes
}

// eagerDeleteShards is the worker-pool variant of the eager deletion body
// (see applyEdgeDeletionsEager): suspect local rows are wiped and reseeded
// across the pool; snapshot drops and bookkeeping stay sequential.
func (pr *proc) eagerDeleteShards(e *Engine, suspect func([]int32) bool) map[graph.ID]bool {
	pr.ensureWorkers(e)
	e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		for _, x := range pr.local[lo:hi] {
			row := pr.store.Row(x)
			if !suspect(row) {
				continue
			}
			for t := range row {
				if graph.ID(t) != x {
					row[t] = dv.Inf
				}
			}
			ws.rows = append(ws.rows, x)
		}
	})
	var hit []graph.ID
	for w := range pr.ws {
		hit = append(hit, pr.ws[w].rows...)
	}
	for _, x := range hit {
		pr.noteRowFull(x)
	}
	holes := make(map[graph.ID]bool)
	for s, row := range pr.ext {
		if suspect(row) {
			delete(pr.ext, s)
			if !pr.extShared.Has(s) {
				pr.recycleRow(row)
			}
			pr.extShared.Clear(s)
			if pd, ok := pr.extPending[s]; ok {
				delete(pr.extPending, s)
				pd.cols.Reset()
				pd.full = false
				pr.pendingPool = append(pr.pendingPool, pd)
			}
			holes[s] = true
		}
	}
	if len(hit) == 0 {
		return holes
	}
	sources := make([]relaxSource, 0, len(pr.ext)+len(pr.local))
	for _, s := range sortedExtIDs(pr.ext) {
		sources = append(sources, relaxSource{id: s, row: pr.ext[s]})
	}
	for _, s := range pr.local {
		sources = append(sources, relaxSource{id: s, row: pr.store.Row(s)})
	}
	e.runShards(len(hit), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		ws.ensure(e.width)
		for _, x := range hit[lo:hi] {
			sssp.DijkstraLocal(e.g, x, pr.isLocal, ws.scratch, ws.heap)
			mergeMin(pr.store.Row(x), ws.scratch)
		}
	})
	for _, x := range hit {
		pr.relaxRowSources(x, sources)
	}
	return holes
}

// seedNewRowsShards is the worker-pool variant of the vertex-addition seed
// loop: the IA-quality Dijkstra of each new row fans out (disjoint rows, so
// bit-identical to the sequential loop) and the change notes are applied in
// the ordered merge.
func (pr *proc) seedNewRowsShards(e *Engine, ids []graph.ID, placement []int, p int) {
	pr.ensureWorkers(e)
	owned := pr.idBuf[:0]
	for i, owner := range placement {
		if owner == p {
			owned = append(owned, ids[i])
		}
	}
	pr.idBuf = owned
	e.runShards(len(owned), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		ws.ensure(e.width)
		for _, v := range owned[lo:hi] {
			sssp.DijkstraLocal(e.g, v, pr.isLocal, ws.scratch, ws.heap)
			changed := dv.MergeMin(pr.store.Row(v), ws.scratch, ws.changed[:0])
			ws.changed = changed
			if len(changed) > 0 {
				ws.record(v, changed)
			}
		}
	})
	pr.forEachRecord(func(v graph.ID, cols []int32) {
		pr.noteRowChanged(e, v, cols, true)
	})
}

// repartitionReseedShards is the worker-pool variant of repartition's final
// per-vertex pass: the flow-metadata bookkeeping runs sequentially first
// (peer-mask reads hit the cache repartition warmed before the parallel
// phase), the Dijkstra-merge reseeds shard across the pool, and the change
// notes are applied in the ordered merge.
func (pr *proc) repartitionReseedShards(e *Engine, firstNew graph.ID) {
	pr.ensureWorkers(e)
	for _, v := range pr.local {
		pr.isLocal[v] = true
		mask := e.peerMask(v)
		st := pr.state(v)
		// Only current peers may receive deltas: a stale bit for a pruned
		// peer must force a full row on re-pairing.
		st.upToDate &= mask
		st.srcFull = true
		st.srcCols.Release()
		pr.dirtySrc.Add(v)
		// New peers hold no snapshot: queue the row so collectMail ships
		// them a full copy (up-to-date peers get nothing).
		if v < firstNew && mask&^st.upToDate != 0 {
			pr.dirtySend.Add(v)
		}
	}
	e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		ws.ensure(e.width)
		for _, v := range pr.local[lo:hi] {
			sssp.DijkstraLocal(e.g, v, pr.isLocal, ws.scratch, ws.heap)
			if v >= firstNew {
				// New batch vertices: nobody holds a snapshot yet.
				mergeMin(pr.store.Row(v), ws.scratch)
				continue
			}
			changed := dv.MergeMin(pr.store.Row(v), ws.scratch, ws.changed[:0])
			ws.changed = changed
			if len(changed) > 0 {
				ws.record(v, changed)
			}
		}
	})
	pr.forEachRecord(func(v graph.ID, cols []int32) {
		pr.dirtySend.Add(v)
		pr.state(v).noteCols(e.width, cols)
	})
	for _, v := range pr.local {
		if v >= firstNew {
			pr.noteRowFull(v)
		}
	}
}

// recoverRowsShards is the worker-pool variant of FailProcessor's rebuild
// loop: rows are pre-created sequentially, the salvage-merge and Dijkstra
// sweeps shard across the pool with per-worker recovery counters summed in
// worker order, and the bookkeeping runs after the barrier.
func (pr *proc) recoverRowsShards(e *Engine, recovered map[graph.ID][]int32, rec *FailureRecovery) {
	for _, v := range pr.local {
		pr.store.AddRow(v)
	}
	pr.ensureWorkers(e)
	e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		ws.ensure(e.width)
		for _, v := range pr.local[lo:hi] {
			row := pr.store.Row(v)
			if salv := recovered[v]; salv != nil {
				ws.n1++
				mergeMin(row, salv)
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
}
