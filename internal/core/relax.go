package core

import (
	"slices"
	"sort"

	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/sparse"
)

// This file is the engine's incremental data path. The recombination update
// is distance-vector routing over boundary sets:
//
//	d(x, t) = min(d(x, t), d(x, s) + D_s(t))
//
// applied for every local row x through every *changed* source row s —
// received external-boundary snapshots and changed local rows. Two
// refinements make steady-state steps cost proportional to actual change
// volume rather than Θ(rows × n):
//
//  1. Delta propagation. A source that changed in k columns is scanned over
//     those k columns only, and the exchange ships only the changed
//     (column, value) pairs — the paper's "it is sufficient to send only
//     the updated values of the boundary DVs". A row's first visit to a
//     peer (or any post-deletion refresh) ships the full row.
//
//  2. The DVR rescan rule. Delta scans alone are not exact: if d(x, s)
//     decreases *after* s last changed, the improved paths through s would
//     never be applied. Whenever a column of x that names a held source
//     decreases, x re-scans that source's full row. The fixpoint then
//     satisfies the same closure as full scanning, so converged distances
//     stay exact (property-tested against the sequential oracle).
//
// See DESIGN.md ("Incremental data-path memory layout") for the allocation
// discipline: every per-step structure here is pooled or arena-backed so a
// steady-state RC step allocates near zero.

// rowState tracks a local row's outgoing-change bookkeeping.
type rowState struct {
	// sendCols are columns changed since the row was last sent.
	sendCols sparse.Cols
	// sendFull forces a full-row send (initial state, deletions).
	sendFull bool
	// srcCols are columns changed since the row was last used as a
	// relaxation source for the other local rows.
	srcCols sparse.Cols
	// srcFull forces a full-row source scan.
	srcFull bool
	// upToDate is the set of peers whose snapshot has received every
	// send so far; only they may receive deltas.
	upToDate uint64
}

// colCap is the sparse/full threshold: once more than width/colCap columns
// changed, tracking and shipping the full row is cheaper (a delta entry is
// a column-value pair, twice the bytes of a dense entry). The threshold is
// on *unique* columns: duplicate change notes never trip it early.
const colCap = 2

func (st *rowState) noteCols(width int, cols []int32) {
	if !st.sendFull && st.sendCols.Note(cols, width/colCap) {
		st.sendFull = true
		st.sendCols.Release()
	}
	if !st.srcFull && st.srcCols.Note(cols, width/colCap) {
		st.srcFull = true
		st.srcCols.Release()
	}
}

func (st *rowState) noteFull() {
	st.sendFull = true
	st.srcFull = true
	st.sendCols.Release()
	st.srcCols.Release()
	// Peers may have dropped or hole-punched their snapshots by the time
	// a row is invalidated wholesale; force full sends to everyone.
	st.upToDate = 0
}

// state returns (allocating if needed) the rowState of local row v.
func (pr *proc) state(v graph.ID) *rowState {
	st := pr.meta[v]
	if st == nil {
		st = &rowState{}
		pr.meta[v] = st
	}
	return st
}

// noteRowChanged records that cols of local row x decreased. queueRescans
// is set by mutation paths outside relax (edge sweeps, reseeds): decreased
// columns naming held sources must trigger a full rescan at the next relax.
// The relax path passes false because its cascade already rescanned.
func (pr *proc) noteRowChanged(e *Engine, x graph.ID, cols []int32, queueRescans bool) {
	if len(cols) == 0 {
		return
	}
	pr.dirtySend.Add(x)
	pr.dirtySrc.Add(x)
	pr.state(x).noteCols(e.width, cols)
	if !queueRescans {
		return
	}
	for _, c := range cols {
		if graph.ID(c) == x {
			continue
		}
		if pr.holdsSource(graph.ID(c)) {
			set := pr.pendingRescan[x]
			if set == nil {
				set = make(map[graph.ID]struct{})
				pr.pendingRescan[x] = set
			}
			set[graph.ID(c)] = struct{}{}
		}
	}
}

// noteRowFull marks a row as changed wholesale (IA, deletions, migration).
func (pr *proc) noteRowFull(x graph.ID) {
	pr.dirtySend.Add(x)
	pr.dirtySrc.Add(x)
	pr.state(x).noteFull()
}

// holdsSource reports whether v's row is readable on this processor (a
// local row or a held external snapshot) and therefore usable as a
// relaxation source.
func (pr *proc) holdsSource(v graph.ID) bool {
	if int(v) < len(pr.isLocal) && pr.isLocal[v] {
		return true
	}
	_, ok := pr.ext[v]
	return ok
}

func (pr *proc) sourceRow(v graph.ID) []int32 {
	if int(v) < len(pr.isLocal) && pr.isLocal[v] {
		return pr.store.Row(v)
	}
	return pr.ext[v]
}

// relaxSource is one changed row to relax through; nil cols = full scan.
type relaxSource struct {
	id   graph.ID
	row  []int32
	cols []int32
	// vals, when non-nil, is a value snapshot of the cols entries taken
	// when the source list was gathered: the frozen-source relax scans read
	// (cols, vals) instead of the live row, so shard workers rewriting
	// local rows can never race a scan (see gatherSources).
	vals []int32
}

// relax performs the recombination update on one processor and returns the
// number of local rows that changed. It is the one job with two kernels,
// selected by pool size. One worker has no concurrent writer, so it relaxes
// in place (Gauss–Seidel) and needs no source snapshots; a wider pool relaxes
// against frozen sources (Jacobi, relaxFrozen), whose full-row snapshots cost
// memory a single worker has no use for (DESIGN.md §6 has the measurement).
// Both are monotone min-plus iterations over the same source notes, so they
// reach the same exact fixpoint; the frozen pass may propagate an improvement
// one step later.
func (pr *proc) relax(e *Engine) int {
	if e.workers > 1 {
		return pr.relaxFrozen(e)
	}
	sources := pr.gatherSources(false)
	if len(sources) == 0 && len(pr.pendingRescan) == 0 {
		return 0
	}
	changed := 0
	for _, x := range pr.local {
		cols := pr.relaxRowSources(x, sources)
		if len(cols) > 0 {
			changed++
			pr.noteRowChanged(e, x, cols, false)
		}
	}
	clear(pr.pendingRescan)
	return changed
}

// relaxFrozen is relax for a pool of several workers: phase A shards the
// source scans over the pool against a frozen source list, phase B runs the
// DVR rescan cascade and the dirty bookkeeping sequentially in ascending row
// order. The phases split exactly here because the scans only write their own
// row, while the cascade reads live local rows and the bookkeeping mutates
// shared sets. The result depends only on each row's prior state and the
// gathered source notes, never on the shard layout, so every pool size > 1
// agrees after every single step.
func (pr *proc) relaxFrozen(e *Engine) int {
	sources := pr.gatherSources(true)
	if len(sources) == 0 && len(pr.pendingRescan) == 0 {
		return 0 // no sources, so no snapshots to release
	}
	pr.ensureWorkers(e)
	e.runShards(len(pr.local), e.shardImbInstall(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		for _, x := range pr.local[lo:hi] {
			changed := dedupCols(scanSources(x, pr.store.Row(x), sources, ws.changed[:0]))
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

// releaseSnapshots recycles the full-row source snapshots taken by
// gatherSources(true) back into the row pool.
func (pr *proc) releaseSnapshots() {
	for i, r := range pr.snapRows {
		pr.recycleRow(r)
		pr.snapRows[i] = nil
	}
	pr.snapRows = pr.snapRows[:0]
}

// arenaCopy appends cols to the arena and returns the stable view of the
// copy (never nil — nil means "full scan" to the relax loop). The arena
// grows by append, so earlier views keep pointing at the old backing array
// when it reallocates; views are only ever read.
func arenaCopy(arena *[]int32, cols []int32) []int32 {
	a := len(*arena)
	*arena = append(*arena, cols...)
	return (*arena)[a:len(*arena):len(*arena)]
}

// gatherSources drains the pending external deltas and dirty local rows
// into a deterministic (ID-sorted) source list. All scratch — the source
// list, the ID buffer and the column arena — is per-proc and reused across
// steps; changed-column lists are copied into the arena so the pending
// accumulators can be recycled immediately.
//
// With freeze set (the frozen-source relax) local sources are value-
// snapshotted — delta sources get a (cols, vals) copy in the arena, full
// sources a pooled whole-row copy released by releaseSnapshots — because shard
// workers will concurrently rewrite the live local rows they'd otherwise
// scan. External snapshots stay live: nothing writes them during relax.
func (pr *proc) gatherSources(freeze bool) []relaxSource {
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
		switch {
		case !st.srcFull:
			src.cols = arenaCopy(&pr.srcArena, st.srcCols.Sorted())
			if freeze {
				a := len(pr.srcArena)
				for _, c := range src.cols {
					pr.srcArena = append(pr.srcArena, src.row[c])
				}
				src.vals = pr.srcArena[a:len(pr.srcArena):len(pr.srcArena)]
			}
		case freeze:
			src.row = pr.newRowCopy(src.row)
			pr.snapRows = append(pr.snapRows, src.row)
		}
		st.srcCols.Reset()
		st.srcFull = false
		sources = append(sources, src)
	}
	pr.dirtySrc.Clear()
	pr.srcBuf = sources
	return sources
}

// scanSources relaxes row (of local vertex x) once through every source,
// appending the changed columns.
func scanSources(x graph.ID, row []int32, sources []relaxSource, changed []int32) []int32 {
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
	return changed
}

// relaxRowSources relaxes one local row through the given sources, then
// cascades the DVR rescan rule until stable: any column of x naming a held
// source that decreased (now, or queued by an earlier mutation) triggers a
// full scan through that source. Returns the deduplicated changed columns,
// valid until the next call (shared per-proc scratch).
func (pr *proc) relaxRowSources(x graph.ID, sources []relaxSource) []int32 {
	row := pr.store.Row(x)
	changed := scanSources(x, row, sources, pr.changedBuf[:0])
	changed = pr.cascadeRescans(x, row, changed)
	changed = dedupCols(changed)
	pr.changedBuf = changed
	return changed
}

// cascadeRescans applies the DVR rescan rule to one row until stable.
// lastScan records d(x,s) at the time source s was last fully scanned for
// this row; a further decrease requires another scan (improvements through s
// now compose with the shorter d(x,s)). The queue is seeded from earlier
// mutations' pending rescans plus the changed held-source columns, and each
// round only the *newly* decreased columns seed the next, so the cascade
// terminates with the row closed under every held source. It reads live
// source rows and must therefore run sequentially — the frozen-source relax
// calls it per row in ascending order after the sharded scan barrier.
func (pr *proc) cascadeRescans(x graph.ID, row []int32, changed []int32) []int32 {
	queue := pr.rescanBuf[:0]
	if set := pr.pendingRescan[x]; len(set) > 0 {
		for s := range set {
			queue = append(queue, s)
		}
		slices.Sort(queue)
	}
	for _, c := range changed {
		if graph.ID(c) != x && pr.holdsSource(graph.ID(c)) {
			queue = append(queue, graph.ID(c))
		}
	}
	if len(queue) > 0 {
		pr.lastScan.Clear()
		for head := 0; head < len(queue); {
			end := len(queue)
			prevLen := len(changed)
			for _, s := range queue[head:end] {
				d := row[s]
				if d >= dv.Inf {
					continue
				}
				if last, ok := pr.lastScan.Get(s); ok && d >= last {
					continue // no decrease since the last full scan
				}
				srow := pr.sourceRow(s)
				if srow == nil {
					continue
				}
				pr.lastScan.Set(s, d)
				changed = dv.ScanFull(row, d, srow, changed)
			}
			head = end
			for _, c := range changed[prevLen:] {
				if graph.ID(c) != x && pr.holdsSource(graph.ID(c)) {
					queue = append(queue, graph.ID(c))
				}
			}
		}
	}
	pr.rescanBuf = queue[:0]
	return changed
}

// eagerLocalRefresh implements the paper's optional "update local DVs"
// recombination strategy: every local row is relaxed through every other
// local row regardless of dirtiness — the distance-vector equivalent of the
// local Floyd–Warshall refresh, providing "more up-to-date partial results
// to the user without having to depend on future recombination steps".
// Returns the number of rows it changed.
func (pr *proc) eagerLocalRefresh(e *Engine) int {
	sources := make([]relaxSource, 0, len(pr.local))
	for _, s := range pr.local {
		sources = append(sources, relaxSource{id: s, row: pr.store.Row(s)})
	}
	changed := 0
	for _, x := range pr.local {
		if cols := pr.relaxRowSources(x, sources); len(cols) > 0 {
			changed++
			pr.noteRowChanged(e, x, cols, false)
		}
	}
	return changed
}

// relaxThroughEdges relaxes every local row through a batch of new edges,
// the kernel of the paper's edge-addition algorithm (Fig. 3 lines 26–34):
//
//	d(x, t) = min(d(x, t), d(x, u) + w + D_v(t), d(x, v) + w + D_u(t))
//
// endRows maps each edge endpoint to the broadcast snapshot of its DV row.
// Changed rows are queued for propagation (with rescans: a decreased column
// naming a held source must be rescanned at the next RC step). The endpoint
// rows are pre-broadcast snapshots and each row relaxes independently through
// them, so the sweep shards over the pool; only the dirty bookkeeping waits
// for the ordered merge.
func (pr *proc) relaxThroughEdges(e *Engine, edges []graph.EdgeTriple, endRows map[graph.ID][]int32) {
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
	pr.forEachRecord(func(x graph.ID, cols []int32) {
		pr.noteRowChanged(e, x, cols, true)
	})
}

// relaxRowThroughEdge applies d(x,t) = min(d(x,t), d(x,u) + w + D_v(t)),
// appending changed columns.
func relaxRowThroughEdge(row []int32, u graph.ID, w int32, vRow []int32, changed []int32) []int32 {
	if vRow == nil {
		return changed
	}
	du := row[u]
	if du >= dv.Inf {
		return changed
	}
	base := dv.SatAdd(du, w)
	if base >= dv.Inf {
		return changed
	}
	return dv.ScanFull(row, base, vRow, changed)
}

// invalidateThroughEdge applies the deletion invalidation sweep for one
// deleted edge {u,v} of weight w to one row: any entry whose pristine value
// could be supported by a path through the edge — pristine[t] >=
// pristine[u] + w + D_v(t) or the symmetric bound — is reset to Inf in row.
//
// Tests read only the *pristine* pre-sweep copy: the test for one edge must
// not observe the invalidations of another edge in the same batch, or
// prefix-witness columns disappear and supported entries slip through.
// Soundness requires exact (converged) distances — applyEdgeDeletions
// converges first — where an entry whose shortest path uses the edge always
// satisfies one of the two bounds with equality. Over-invalidated entries
// are re-derived by the reseed pass and the following RC steps.
//
// It returns the number of newly invalidated entries.
func invalidateThroughEdge(pristine, row []int32, self graph.ID, u, v graph.ID, w int32, uRow, vRow []int32) int {
	du := int64(dv.Inf)
	if int(u) < len(pristine) {
		du = int64(pristine[u])
	}
	dvv := int64(dv.Inf)
	if int(v) < len(pristine) {
		dvv = int64(pristine[v])
	}
	if du >= int64(dv.Inf) && dvv >= int64(dv.Inf) {
		return 0
	}
	n := len(pristine)
	count := 0
	for t := 0; t < n; t++ {
		cur := pristine[t]
		if cur == dv.Inf || graph.ID(t) == self {
			continue
		}
		bound := int64(dv.Inf)
		if du < int64(dv.Inf) && t < len(vRow) && vRow[t] < dv.Inf {
			bound = du + int64(w) + int64(vRow[t])
		}
		if dvv < int64(dv.Inf) && t < len(uRow) && uRow[t] < dv.Inf {
			if b := dvv + int64(w) + int64(uRow[t]); b < bound {
				bound = b
			}
		}
		if int64(cur) >= bound && row[t] != dv.Inf {
			row[t] = dv.Inf
			count++
		}
	}
	return count
}

// dedupCols sorts and deduplicates a changed-column list in place.
func dedupCols(cols []int32) []int32 {
	if len(cols) < 2 {
		return cols
	}
	slices.Sort(cols)
	out := cols[:1]
	for _, c := range cols[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// sortedEdgeList returns edges sorted for deterministic sweeps.
func sortedEdgeList(edges []graph.EdgeTriple) []graph.EdgeTriple {
	out := append([]graph.EdgeTriple(nil), edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		if out[i].V != out[j].V {
			return out[i].V < out[j].V
		}
		return out[i].W < out[j].W
	})
	return out
}
