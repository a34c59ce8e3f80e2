package core

import (
	"slices"
	"sort"

	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/sparse"
)

// This file is the engine's incremental data path. The recombination update
// is distance-vector routing over the graph's edges:
//
//	d(x, t) = min(d(x, t), w(x, y) + d(y, t))   for every neighbour y of x
//
// Each processor keeps its local rows closed under their neighbours' rows:
// the live rows of local neighbours and the held snapshots of external ones
// (ext holds exactly the external neighbours' rows, see peerMask). relax
// restores that closure after an exchange, as a worklist:
//
//  1. Each received snapshot y, in ID order, pushes into its local
//     neighbours, over the columns the delta changed or over the whole row
//     for a full receipt. A delta also composes through every local row x
//     that reaches y — x[t] = min(x[t], x[y] + y[t]) over the delta's
//     columns — so one step carries a distance across several cuts.
//  2. Local rows that changed push into their local neighbours, in
//     ascending batches, in place (Gauss–Seidel), until none changed.
//
// Pushes are at the fixed edge weight, so a row that changed in k columns
// is pushed, and shipped, over those k columns only — the paper's "it is
// sufficient to send only the updated values of the boundary DVs". A row's
// first visit to a peer (or any post-deletion refresh) ships the full row.
// Every entry is the length of a real path, so at the fixpoint (no row
// changed, nothing sent) every row satisfies the Bellman–Ford equations over
// its neighbours and the distances are exact. Mutations outside relax keep
// the closure too: the edge-addition sweep relaxes both endpoints through the
// new edge, a deletion pulls each re-derived row from its neighbours, and
// every row they change is queued to push at the next relax.
//
// See DESIGN.md ("Incremental data-path memory layout") for the allocation
// discipline: every per-step structure here is pooled or reused so a
// steady-state RC step allocates near zero.

// rowState tracks a local row's outgoing-change bookkeeping.
type rowState struct {
	// sendCols are columns changed since the row was last sent.
	sendCols sparse.Cols
	// sendFull forces a full-row send (initial state, deletions).
	sendFull bool
	// srcCols are columns changed since the row last pushed into its local
	// neighbours.
	srcCols sparse.Cols
	// srcFull forces a full-row push.
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

// noteRowChanged records that cols of local row x decreased: the row is
// queued to be sent and to push into its local neighbours.
func (pr *proc) noteRowChanged(e *Engine, x graph.ID, cols []int32) {
	if len(cols) == 0 {
		return
	}
	pr.dirtySend.Add(x)
	pr.dirtySrc.Add(x)
	pr.state(x).noteCols(e.width, cols)
}

// noteRowFull marks a row as changed wholesale (IA, deletions, migration).
func (pr *proc) noteRowFull(x graph.ID) {
	pr.dirtySend.Add(x)
	pr.dirtySrc.Add(x)
	pr.state(x).noteFull()
}

// relax performs the recombination update on one processor and returns the
// number of local rows that changed. It runs in place (Gauss–Seidel) on the
// processor's goroutine at every pool size: a row pushed into earlier in the
// pass already feeds the rows after it, and the result of every step is the
// same whatever Options.Workers is (DESIGN.md §6).
func (pr *proc) relax(e *Engine) int {
	before := pr.dirtySend.Len()
	if len(pr.extPending) > 0 {
		ids := pr.idBuf[:0]
		for y := range pr.extPending {
			ids = append(ids, y)
		}
		slices.Sort(ids)
		pr.idBuf = ids
		for _, y := range ids {
			p := pr.extPending[y]
			full := p.full
			cols := p.cols.AppendSorted(pr.colBuf[:0])
			pr.colBuf = cols
			pr.recyclePending(p)
			yrow := pr.ext[y]
			if !full {
				pr.compose(e, y, yrow, cols)
			}
			pr.push(e, y, yrow, cols, full)
		}
		clear(pr.extPending)
	}
	for pr.dirtySrc.Len() > 0 {
		batch := append(pr.batchBuf[:0], pr.dirtySrc.Sorted()...)
		pr.batchBuf = batch
		for _, y := range batch {
			// Taken at its turn, not at the batch start: the pushes of the
			// rows before it in the batch are already in its columns.
			pr.dirtySrc.Remove(y)
			st := pr.state(y)
			full := st.srcFull
			cols := st.srcCols.AppendSorted(pr.colBuf[:0])
			pr.colBuf = cols
			st.srcCols.Reset()
			st.srcFull = false
			pr.push(e, y, pr.store.Row(y), cols, full)
		}
	}
	return pr.dirtySend.Len() - before
}

// push relaxes every local neighbour x of y through the edge (x,y):
// x[t] = min(x[t], w + yrow[t]) over cols, or over every column when full.
func (pr *proc) push(e *Engine, y graph.ID, yrow []int32, cols []int32, full bool) {
	if yrow == nil || (!full && len(cols) == 0) {
		return
	}
	for _, ed := range e.g.Neighbors(y) {
		x := ed.To
		if int(x) >= len(pr.isLocal) || !pr.isLocal[x] {
			continue
		}
		row := pr.store.Row(x)
		if full {
			pr.changedBuf = dv.ScanFull(row, ed.W, yrow, pr.changedBuf[:0])
		} else {
			pr.changedBuf = dv.ScanCols(row, ed.W, yrow, cols, pr.changedBuf[:0])
		}
		pr.noteRowChanged(e, x, pr.changedBuf)
	}
}

// compose relaxes every local row x with a finite x[y] through the changed
// columns of y's snapshot: x[t] = min(x[t], x[y] + yrow[t]).
func (pr *proc) compose(e *Engine, y graph.ID, yrow []int32, cols []int32) {
	if yrow == nil || len(cols) == 0 {
		return
	}
	for _, x := range pr.local {
		row := pr.store.Row(x)
		d := row[y]
		if d >= dv.Inf {
			continue
		}
		pr.changedBuf = dv.ScanCols(row, d, yrow, cols, pr.changedBuf[:0])
		pr.noteRowChanged(e, x, pr.changedBuf)
	}
}

// pull relaxes local row x through every neighbour's row it can read (live
// local rows, held snapshots), restoring x's closure after a deletion
// re-derived it. The caller has already marked x for a full push and send.
func (pr *proc) pull(e *Engine, x graph.ID) {
	row := pr.store.Row(x)
	for _, ed := range e.g.Neighbors(x) {
		y := ed.To
		yrow := pr.ext[y]
		if int(y) < len(pr.isLocal) && pr.isLocal[y] {
			yrow = pr.store.Row(y)
		}
		if yrow != nil {
			pr.changedBuf = dv.ScanFull(row, ed.W, yrow, pr.changedBuf[:0])
		}
	}
}

// eagerLocalRefresh implements the paper's optional "update local DVs"
// recombination strategy: one pass relaxing every local row through every
// other local row, x[t] = min(x[t], x[s] + s[t]), regardless of dirtiness —
// the distance-vector equivalent of the local Floyd–Warshall refresh,
// providing "more up-to-date partial results to the user without having to
// depend on future recombination steps". Returns the number of rows it
// changed that the step's relax had not.
func (pr *proc) eagerLocalRefresh(e *Engine) int {
	before := pr.dirtySend.Len()
	for _, x := range pr.local {
		row := pr.store.Row(x)
		changed := pr.changedBuf[:0]
		for _, s := range pr.local {
			if d := row[s]; s != x && d < dv.Inf {
				changed = dv.ScanFull(row, d, pr.store.Row(s), changed)
			}
		}
		pr.changedBuf = changed
		pr.noteRowChanged(e, x, changed)
	}
	return pr.dirtySend.Len() - before
}

// sweepEdges relaxes every local row through a batch of new edges, in
// order, the kernel of the paper's edge-addition algorithm (Fig. 3 lines
// 26–34):
//
//	d(x, t) = min(d(x, t), d(x, u) + w + D_v(t), d(x, v) + w + D_u(t))
//
// ends[i] holds edge i's endpoint rows (u, v) as they stand just before edge
// i is swept (see edgeEndpointRows). Each row relaxes independently through
// them, so the sweep shards over the pool; only the dirty bookkeeping waits
// for the ordered merge.
func (pr *proc) sweepEdges(e *Engine, edges []graph.EdgeTriple, ends [][2][]int32) {
	pr.ensureWorkers(e)
	e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		for _, x := range pr.local[lo:hi] {
			ws.changed = sweepRow(pr.store.Row(x), edges, ends, ws.changed[:0])
			if len(ws.changed) > 0 {
				ws.record(x, ws.changed)
			}
		}
	})
	pr.forEachRecord(func(x graph.ID, cols []int32) {
		pr.noteRowChanged(e, x, cols)
	})
}

// sweepRow relaxes one row through every edge of a batch in order,
// appending the changed columns (possibly repeated) to changed.
func sweepRow(row []int32, edges []graph.EdgeTriple, ends [][2][]int32, changed []int32) []int32 {
	for i, ed := range edges {
		changed = relaxRowThroughEdge(row, ed.U, ed.W, ends[i][1], changed)
		changed = relaxRowThroughEdge(row, ed.V, ed.W, ends[i][0], changed)
	}
	return changed
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
// Soundness requires exact (converged) distances, where an entry whose
// shortest path uses the edge always satisfies one of the two bounds with
// equality: the engine picks this test only at the fixpoint (atFixpoint)
// and wipes suspect rows otherwise (wipeSuspectRows). Over-invalidated
// entries are re-derived by the reseed pass and the following RC steps.
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
