package core

import (
	"fmt"
	"sort"

	"aacc/internal/cluster"
	"aacc/internal/dv"
	"aacc/internal/graph"
	"aacc/internal/runtime"
)

// This file implements the "anywhere" half of the engine: dynamic graph
// changes folded into a running analysis between RC steps. Edge additions
// follow the paper's Fig. 3 algorithm; edge deletions implement the
// invalidate-and-reconverge strategy of the titled paper; vertex additions
// combine DV growth with the edge-addition kernel (Fig. 2/3); vertex
// deletions (the paper's future work) compose edge deletions with row and
// column retirement.

// applyEdgeAdditions inserts the given new edges and incrementally updates
// all distance vectors through them. The whole batch is validated before
// anything mutates (a dead endpoint, self-loop or non-positive weight
// rejects the batch intact); the edges then apply strictly one at a time in
// input order — broadcast the two endpoint rows, insert, relax every local
// row through the new edge — so a batch of k edges is bit-for-bit identical
// to k singleton calls. That identity is what lets the ingestion pipeline
// (Coalesce, anytime.Session) merge adjacent addition batches without
// changing any published distance. Edges that already exist with a weight
// <= the new one are skipped; a strictly smaller weight is treated as a
// weight decrease (same relaxation). The engine is left un-converged; run
// Step/Run to propagate the effects.
//
// On a multi-process runtime a failed endpoint-row broadcast aborts the
// batch between edges: edges before the fault are applied (each one
// atomically), the rest are not. The coordinator's consensus settling
// handles the divergence exactly as it does any mid-op transport fault.
func (e *Engine) applyEdgeAdditions(edges []graph.EdgeTriple) error {
	for _, ed := range edges {
		if !e.g.Has(ed.U) || !e.g.Has(ed.V) {
			return fmt.Errorf("core: edge {%d,%d} references a dead vertex", ed.U, ed.V)
		}
		if ed.U == ed.V {
			return fmt.Errorf("core: self-loop {%d,%d}", ed.U, ed.V)
		}
		if ed.W <= 0 {
			return fmt.Errorf("core: non-positive weight %d on edge {%d,%d}", ed.W, ed.U, ed.V)
		}
	}
	applied := 0
	one := make([]graph.EdgeTriple, 1)
	ends := make([]graph.ID, 2)
	for _, ed := range edges {
		// The improving check consults the live graph, so a duplicate pair
		// later in the batch sees the weight an earlier entry installed —
		// exactly as a singleton sequence would.
		if w, ok := e.g.Weight(ed.U, ed.V); ok && w <= ed.W {
			continue // no shorter than what exists
		}
		one[0] = ed
		ends[0], ends[1] = ed.U, ed.V
		if ends[0] > ends[1] {
			ends[0], ends[1] = ends[1], ends[0]
		}
		endRows, err := e.broadcastRows(ends)
		if err != nil {
			return err
		}
		e.g.AddEdge(ed.U, ed.V, ed.W)
		e.invalidateMask(ed.U)
		e.invalidateMask(ed.V)
		e.relaxEdgeBatch(one, endRows)
		applied++
	}
	if applied == 0 {
		return nil
	}
	e.trace("edge-add", "%d edges applied", applied)
	e.conv = false
	return nil
}

// relaxEdgeBatch relaxes every local row on every resident processor
// through every new edge, given the endpoint rows already broadcast (tree
// broadcast, as in Fig. 3 line 22).
func (e *Engine) relaxEdgeBatch(edges []graph.EdgeTriple, endRows map[graph.ID][]int32) {
	e.rt.Parallel(func(p int) {
		e.procs[p].relaxThroughEdges(e, edges, endRows)
	})
}

// edgeEndpoints returns the sorted distinct endpoints of a batch.
func edgeEndpoints(edges []graph.EdgeTriple) []graph.ID {
	set := make(map[graph.ID]bool, 2*len(edges))
	for _, ed := range edges {
		set[ed.U] = true
		set[ed.V] = true
	}
	return sortedIDs(set)
}

// broadcastRows snapshots the current DV row of each vertex from its owner
// and accounts one tree broadcast per row. On a partial (multi-process)
// engine only resident owners' rows are readable here; the runtime's row
// all-gather merges in the rows contributed by the other workers, which run
// the same mutation with the same vertex set. The error is always nil on
// single-process runtimes.
func (e *Engine) broadcastRows(ids []graph.ID) (map[graph.ID][]int32, error) {
	out := make(map[graph.ID][]int32, len(ids))
	for _, v := range ids {
		o := e.Owner(v)
		if o < 0 || !e.resident(o) {
			continue
		}
		row := e.procs[o].store.CloneRow(v)
		if row == nil {
			continue
		}
		out[v] = row
		e.rt.Broadcast(o, &cluster.Mail{Payload: v, Bytes: 4 + 4*len(row)})
	}
	if rb, ok := e.rt.(runtime.RowBroadcaster); ok && e.partial != nil {
		all, err := rb.BroadcastRows(out)
		if err != nil {
			return nil, fmt.Errorf("core: broadcasting endpoint rows: %w", err)
		}
		return all, nil
	}
	return out, nil
}

// applyEdgeDeletions removes the given edges as one joint batch and
// invalidates every distance entry that may be supported by a path through
// any of them, re-deriving invalidated rows from fresh local Dijkstra runs
// merged over the surviving partial results. The engine is left
// un-converged; run Step/Run to re-reach the fixpoint.
//
// The invalidation test — "entry (x,t) may be supported through deleted
// edge {u,v} iff d(x,t) >= d(x,u)+w+d(v,t) or the symmetric bound" — is
// sound only on *exact* distances: on partial upper bounds it can miss
// entries whose supporting path walks through the edge but whose value was
// derived without consulting the endpoint rows (e.g. inside one local
// Dijkstra). The engine therefore first runs RC steps to the fixpoint if it
// is not converged (the cost is charged to the same totals). Additions need
// no such barrier. This mirrors the titled paper's streaming setting, where
// deletions update the maintained (converged) closeness state; the win over
// baseline restart is that every surviving entry is reused.
// The whole batch is validated before anything mutates — a dead or
// out-of-range endpoint or a self-loop rejects the batch intact. Pairs that
// name no live edge between live vertices are skipped (deletes are
// idempotent).
func (e *Engine) applyEdgeDeletions(pairs [][2]graph.ID) error {
	batch, err := e.deletionBatch(pairs)
	if err != nil || len(batch) == 0 {
		return err
	}
	if !e.conv {
		if _, err := e.Run(); err != nil {
			return fmt.Errorf("core: converging before deletion batch: %w", err)
		}
	}
	batch = sortedEdgeList(batch)
	endRows, err := e.broadcastRows(edgeEndpoints(batch))
	if err != nil {
		return err
	}
	for _, ed := range batch {
		e.g.RemoveEdge(ed.U, ed.V)
		e.invalidateMask(ed.U)
		e.invalidateMask(ed.V)
	}
	e.invalidateAndReseed(func(pr *proc) (hit, holes []graph.ID) {
		return pr.invalidateThroughEdges(e, batch, endRows)
	})
	e.trace("edge-delete", "%d edges removed (barrier mode)", len(batch))
	e.conv = false
	return nil
}

// invalidateThroughEdges is the barrier-mode invalidation: it sweeps every
// stored row (local rows and external snapshots) with the deletion
// invalidation test for the whole batch and returns the local rows and the
// snapshots that lost entries.
//
// Each row is tested against a pristine pre-sweep copy of itself: the test
// for one deleted edge must not observe the invalidations of another, or
// prefix-witness columns disappear and supported entries slip through. Every
// worker sweeps against its own pristine copy in ws.scratch; hits are
// harvested in shard order (= ascending row order).
func (pr *proc) invalidateThroughEdges(e *Engine, batch []graph.EdgeTriple, endRows map[graph.ID][]int32) (hit, holes []graph.ID) {
	sweep := func(ws *workerScratch, row []int32, self graph.ID) int {
		copy(ws.scratch, row)
		n := 0
		for _, ed := range batch {
			n += invalidateThroughEdge(ws.scratch, row, self, ed.U, ed.V, ed.W, endRows[ed.U], endRows[ed.V])
		}
		return n
	}
	e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
		ws := &pr.ws[w]
		for _, x := range pr.local[lo:hi] {
			if sweep(ws, pr.store.Row(x), x) > 0 {
				ws.rows = append(ws.rows, x)
			}
		}
	})
	hit = pr.takeRows()
	// External snapshots: copy-on-write sequentially (map writes, row pool)
	// before the sweep may punch holes — the backing array is shared with
	// other processors — then shard the sweeps over the frozen id list.
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
		for _, s := range swept[lo:hi] {
			if sweep(ws, pr.ext[s], s) > 0 {
				ws.rows = append(ws.rows, s)
			}
		}
	})
	return hit, pr.takeRows()
}

// invalidateAndReseed is the body the two deletion modes share. On every
// resident processor, invalidate removes the entries the deleted edges may
// support — every stored row before any re-derivation, so no relaxation can
// re-poison entries from a not-yet-swept row — and returns the local rows it
// hit (ascending) and the external snapshots it punched holes in or dropped.
// Hit rows are then re-derived: a fresh local Dijkstra is merged in (reusing
// every surviving partial result; disjoint rows, sharded over the pool) and
// the row is relaxed through *all* stored rows — not just recently-changed
// ones — because invalidation destroys the incremental-propagation invariant
// that a row has already seen every source it depends on. That relax reads
// live local rows, so it runs sequentially. Snapshots with holes are stale
// until their owner re-sends, so a full refresh of the owner's intact row is
// queued for the next exchange.
func (e *Engine) invalidateAndReseed(invalidate func(pr *proc) (hit, holes []graph.ID)) {
	refresh := make([][]graph.ID, e.opts.P)
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		pr.ensureWorkers(e)
		var hit []graph.ID
		hit, refresh[p] = invalidate(pr)
		if len(hit) == 0 {
			return
		}
		for _, x := range hit {
			pr.noteRowFull(x)
		}
		sources := make([]relaxSource, 0, len(pr.ext)+len(pr.local))
		for _, s := range sortedExtIDs(pr.ext) {
			sources = append(sources, relaxSource{id: s, row: pr.ext[s]})
		}
		for _, s := range pr.local {
			sources = append(sources, relaxSource{id: s, row: pr.store.Row(s)})
		}
		e.runShards(len(hit), e.shardImbReseed(), func(w, lo, hi int) {
			for _, x := range hit[lo:hi] {
				pr.reseed(e, &pr.ws[w], x)
			}
		})
		for _, x := range hit {
			pr.relaxRowSources(x, sources)
		}
	})
	for _, holes := range refresh {
		for _, s := range holes {
			if o := e.Owner(s); o >= 0 {
				e.procs[o].noteRowFull(s)
			}
		}
	}
}

func sortedExtIDs(ext map[graph.ID][]int32) []graph.ID {
	ids := make([]graph.ID, 0, len(ext))
	for v := range ext {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// applyEdgeDeletionsEager removes the given edges *without* the convergence
// barrier of applyEdgeDeletions, preserving the "anywhere" property for
// deletions at the price of coarser invalidation: any row whose columns for
// both endpoints of a deleted edge are finite is reset wholesale and
// reseeded from a local Dijkstra. Soundness on arbitrary partial state
// follows from row path-closure — an entry supported by a path through edge
// {u,v} always has finite u and v columns in its own row — so resetting
// every such row removes every possibly-supported entry without any
// distance arithmetic. On converged state almost every row qualifies, which
// degenerates toward a restart; prefer MutEdgeDelete there.
// Like applyEdgeDeletions, the whole batch is validated before anything
// mutates; pairs naming no live edge are skipped.
func (e *Engine) applyEdgeDeletionsEager(pairs [][2]graph.ID) error {
	batch, err := e.deletionBatch(pairs)
	if err != nil || len(batch) == 0 {
		return err
	}
	for _, ed := range batch {
		e.g.RemoveEdge(ed.U, ed.V)
		e.invalidateMask(ed.U)
		e.invalidateMask(ed.V)
	}
	e.invalidateAndReseed(func(pr *proc) (hit, holes []graph.ID) {
		return pr.wipeSuspectRows(e, batch)
	})
	e.trace("edge-delete", "%d edges removed (eager mode)", len(batch))
	e.conv = false
	return nil
}

// wipeSuspectRows is the eager-mode invalidation: every local row with
// finite columns for both endpoints of a deleted edge is reset wholesale, and
// every such snapshot is dropped (its owner re-sends after its own reset).
func (pr *proc) wipeSuspectRows(e *Engine, batch []graph.EdgeTriple) (hit, holes []graph.ID) {
	suspect := func(row []int32) bool {
		for _, ed := range batch {
			if int(ed.U) < len(row) && int(ed.V) < len(row) &&
				row[ed.U] != dv.Inf && row[ed.V] != dv.Inf {
				return true
			}
		}
		return false
	}
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
			holes = append(holes, s)
		}
	}
	return pr.takeRows(), holes
}

// deletionBatch validates pairs (see validateDeletionBatch) and resolves them
// to the distinct live edges they name, with their current weights.
func (e *Engine) deletionBatch(pairs [][2]graph.ID) ([]graph.EdgeTriple, error) {
	if err := e.validateDeletionBatch(pairs); err != nil {
		return nil, err
	}
	var batch []graph.EdgeTriple
	seen := make(map[[2]graph.ID]bool, len(pairs))
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u > v {
			u, v = v, u
		}
		if seen[[2]graph.ID{u, v}] {
			continue
		}
		seen[[2]graph.ID{u, v}] = true
		if w, ok := e.g.Weight(u, v); ok {
			batch = append(batch, graph.EdgeTriple{U: u, V: v, W: w})
		}
	}
	return batch, nil
}

// validateDeletionBatch gives deletion inputs the same whole-batch
// validate-before-mutate contract edge additions have: the first bad pair
// rejects the batch with nothing removed and no distance state touched.
func (e *Engine) validateDeletionBatch(pairs [][2]graph.ID) error {
	for _, p := range pairs {
		if !e.g.Has(p[0]) || !e.g.Has(p[1]) {
			return fmt.Errorf("core: edge deletion {%d,%d} references a dead vertex", p[0], p[1])
		}
		if p[0] == p[1] {
			return fmt.Errorf("core: self-loop deletion {%d,%d}", p[0], p[1])
		}
	}
	return nil
}

// setEdgeWeights (MutSetWeight) applies a batch of absolute weight changes
// with the same whole-batch-validate-before-mutate contract as
// applyEdgeAdditions: every target edge must exist between live vertices and
// every new weight must be positive, or the whole batch is rejected and
// nothing mutates. The changes then apply one at a time in input order
// (weight changes never remove edges, so the upfront validation stays sound
// throughout the batch): a decrease is an incremental relaxation; an increase
// is a deletion followed by an insertion at the new weight (the shared
// DecomposeWeightSet sequence), per the paper's edge-weight-change strategy.
func (e *Engine) setEdgeWeights(updates []graph.EdgeTriple) error {
	for _, up := range updates {
		if up.W < 1 {
			return fmt.Errorf("core: non-positive weight %d on edge {%d,%d}", up.W, up.U, up.V)
		}
		if _, ok := e.g.Weight(up.U, up.V); !ok {
			return fmt.Errorf("core: weight set on missing edge {%d,%d}", up.U, up.V)
		}
	}
	for _, up := range updates {
		old, _ := e.g.Weight(up.U, up.V)
		switch {
		case up.W == old:
		case up.W < old:
			if err := e.applyEdgeAdditions([]graph.EdgeTriple{up}); err != nil {
				return err
			}
		default:
			steps := DecomposeWeightSet(up.U, up.V, up.W, false)
			for i := range steps {
				if err := e.applyMutation(&steps[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// BatchEdge is an edge between two vertices of the same VertexBatch,
// identified by batch indices.
type BatchEdge struct {
	A, B int
	W    int32
}

// AttachEdge connects a batch vertex to an existing graph vertex.
type AttachEdge struct {
	New int
	To  graph.ID
	W   int32
}

// VertexBatch describes a set of new vertices arriving together with their
// edges — the unit of the paper's dynamic vertex additions. Internal edges
// carry the community structure the CutEdge-PS strategy exploits.
type VertexBatch struct {
	Count    int
	Internal []BatchEdge
	External []AttachEdge
}

// Validate checks index ranges against the batch size.
func (b *VertexBatch) Validate() error {
	for _, ed := range b.Internal {
		if ed.A < 0 || ed.A >= b.Count || ed.B < 0 || ed.B >= b.Count || ed.A == ed.B {
			return fmt.Errorf("core: internal batch edge {%d,%d} out of range (count %d)", ed.A, ed.B, b.Count)
		}
	}
	for _, ed := range b.External {
		if ed.New < 0 || ed.New >= b.Count {
			return fmt.Errorf("core: external batch edge index %d out of range (count %d)", ed.New, b.Count)
		}
	}
	return nil
}

// NumEdges returns the total number of edges the batch introduces.
func (b *VertexBatch) NumEdges() int { return len(b.Internal) + len(b.External) }

// applyVertexAdditions performs the paper's anywhere vertex-addition
// strategy (Fig. 2): choose owner processors for the new vertices with the
// given assignment strategy, grow every DV by the new columns, and add the
// batch's edges with the edge-addition algorithm (Fig. 3). It returns the
// IDs assigned to the new vertices.
func (e *Engine) applyVertexAdditions(batch *VertexBatch, ps ProcessorAssigner) ([]graph.ID, error) {
	if e.Partial() {
		return nil, fmt.Errorf("core: vertex additions are not supported on a partial (multi-process worker) engine")
	}
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	if batch.Count == 0 {
		return nil, nil
	}
	for _, ed := range batch.External {
		if !e.g.Has(ed.To) {
			return nil, fmt.Errorf("core: batch attaches to dead vertex %d", ed.To)
		}
	}
	placement := ps.Assign(e, batch)
	if len(placement) != batch.Count {
		return nil, fmt.Errorf("core: %s assigned %d of %d vertices", ps.Name(), len(placement), batch.Count)
	}
	for i, p := range placement {
		if p < 0 || p >= e.opts.P {
			return nil, fmt.Errorf("core: %s assigned vertex %d to invalid processor %d", ps.Name(), i, p)
		}
	}
	first := e.g.AddVertices(batch.Count)
	e.growTo(e.g.NumIDs())
	ids := make([]graph.ID, batch.Count)
	for i := range ids {
		ids[i] = first + graph.ID(i)
	}
	// Register ownership, then create the new rows (Fig. 3 lines 11–18).
	for i, p := range placement {
		e.owner[ids[i]] = int16(p)
	}
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		for i, owner := range placement {
			if owner != p {
				continue
			}
			v := ids[i]
			pr.local = append(pr.local, v)
			pr.isLocal[v] = true
			pr.store.AddRow(v)
		}
		sort.Slice(pr.local, func(a, b int) bool { return pr.local[a] < pr.local[b] })
	})
	// Add the batch's edges via the edge-addition kernel (lines 19–44).
	edges := make([]graph.EdgeTriple, 0, batch.NumEdges())
	for _, ed := range batch.Internal {
		edges = append(edges, graph.EdgeTriple{U: ids[ed.A], V: ids[ed.B], W: ed.W})
	}
	for _, ed := range batch.External {
		edges = append(edges, graph.EdgeTriple{U: ids[ed.New], V: ed.To, W: ed.W})
	}
	if err := e.applyEdgeAdditions(edges); err != nil {
		return nil, err
	}
	// Seed each new row with an IA-quality local Dijkstra (the new vertex
	// joined its owner's local subgraph): one good initial vector instead
	// of many dribbling refinements across later RC steps. The Dijkstras fan
	// out over the pool (disjoint rows); the change notes are applied in the
	// ordered merge.
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
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
			for _, v := range owned[lo:hi] {
				if changed := pr.reseed(e, ws, v); len(changed) > 0 {
					ws.record(v, changed)
				}
			}
		})
		pr.forEachRecord(func(v graph.ID, cols []int32) {
			pr.noteRowChanged(e, v, cols, true)
		})
	})
	e.trace("vertex-add", "%d vertices, %d edges via %s", batch.Count, batch.NumEdges(), ps.Name())
	e.conv = false
	return ids, nil
}

// removeVertices deletes the given live vertices: all incident edges are
// removed with the deletion strategy, then the rows, columns and ownership
// of the vertices are retired. This is the vertex-deletion extension the
// paper lists as future work. The whole batch is validated before anything
// mutates: a dead or duplicated vertex rejects the batch intact.
func (e *Engine) removeVertices(ids []graph.ID) error {
	if e.Partial() {
		return fmt.Errorf("core: vertex removals are not supported on a partial (multi-process worker) engine")
	}
	seen := make(map[graph.ID]bool, len(ids))
	for _, v := range ids {
		if !e.g.Has(v) {
			return fmt.Errorf("core: vertex removal of dead vertex %d", v)
		}
		if seen[v] {
			return fmt.Errorf("core: vertex removal lists vertex %d twice", v)
		}
		seen[v] = true
	}
	// All incident edges of all doomed vertices go as one joint deletion
	// batch: one closure-sound sweep instead of one per edge.
	var pairs [][2]graph.ID
	for _, v := range ids {
		for _, ed := range e.g.Neighbors(v) {
			pairs = append(pairs, [2]graph.ID{v, ed.To})
		}
	}
	if err := e.applyEdgeDeletions(pairs); err != nil {
		return err
	}
	for _, v := range ids {
		owner := e.Owner(v)
		e.g.RemoveVertex(v)
		e.owner[v] = -1
		e.invalidateMask(v)
		e.rt.Parallel(func(p int) {
			e.procs[p].retire(v, p == owner)
		})
	}
	e.conv = false
	return nil
}

// growTo widens the global ID space on every processor: DV rows gain Inf
// columns (amortised doubling), external snapshots likewise, and ownership
// and locality arrays are extended.
func (e *Engine) growTo(width int) {
	if width <= e.width {
		return
	}
	for len(e.owner) < width {
		e.owner = append(e.owner, -1)
	}
	for len(e.maskCache) < width {
		e.maskCache = append(e.maskCache, 0)
		e.maskValid = append(e.maskValid, false)
	}
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		pr.store.Grow(width)
		for v, row := range pr.ext {
			if len(row) < width {
				grown := make([]int32, width)
				n := copy(grown, row)
				for i := n; i < width; i++ {
					grown[i] = dv.Inf
				}
				if !pr.extShared.Has(v) {
					pr.recycleRow(row)
				}
				pr.ext[v] = grown
				pr.extShared.Clear(v) // the grown copy is owned
			}
		}
		for len(pr.isLocal) < width {
			pr.isLocal = append(pr.isLocal, false)
		}
	})
	e.width = width
}
