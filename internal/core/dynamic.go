package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

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
// rejects the batch intact). The batch then gathers the endpoint rows of its
// improving edges once — one bundled tree broadcast per owner processor,
// where the paper's Fig. 3 line 22 broadcasts per edge — inserts the edges,
// and sweeps every local row through them strictly in input order. Edge i
// reads its endpoints' rows as they stand after edges 1..i-1 (see
// edgeEndpointRows), so a batch of k edges is bit-for-bit identical to k
// singleton calls. That identity is what lets the ingestion pipeline
// (Coalesce, anytime.Session) merge adjacent addition batches without
// changing any published distance. Edges that already exist with a weight
// <= the new one are skipped; a strictly smaller weight is treated as a
// weight decrease (same relaxation). The engine is left un-converged; run
// Step/Run to propagate the effects.
//
// On a multi-process runtime a failed endpoint-row gather rejects the whole
// batch before anything mutates. The coordinator's consensus settling
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
	// The improving check sees the weight an earlier entry of the batch
	// installs for the same pair — exactly as a singleton sequence would.
	var improving []graph.EdgeTriple
	installed := make(map[[2]graph.ID]int32, len(edges))
	for _, ed := range edges {
		pair := [2]graph.ID{min(ed.U, ed.V), max(ed.U, ed.V)}
		w, ok := installed[pair]
		if !ok {
			w, ok = e.g.Weight(ed.U, ed.V)
		}
		if ok && w <= ed.W {
			continue // no shorter than what exists
		}
		installed[pair] = ed.W
		improving = append(improving, ed)
	}
	if len(improving) == 0 {
		return nil
	}
	endRows, err := e.gatherRows(edgeEndpoints(improving))
	if err != nil {
		return err
	}
	for _, ed := range improving {
		e.g.AddEdge(ed.U, ed.V, ed.W)
		e.invalidateMask(ed.U)
		e.invalidateMask(ed.V)
	}
	ends := e.edgeEndpointRows(improving, endRows)
	e.rt.Parallel(func(p int) {
		e.procs[p].sweepEdges(e, improving, ends)
	})
	e.conv = false
	return nil
}

// edgeEndpointRows returns, for each edge of a batch in order, the rows of
// its two endpoints just before the edge is swept: the gathered rows, each
// swept through the batch's earlier edges. The sweep of an endpoint row
// reads only endpoint rows, so this replays exactly what each endpoint's
// owner does to its live row, and every processor computes it alike; it is
// accounted as compute once, as each processor would run it in parallel.
// endRows is consumed.
func (e *Engine) edgeEndpointRows(edges []graph.EdgeTriple, endRows map[graph.ID][]int32) [][2][]int32 {
	start := time.Now()
	ends := make([][2][]int32, len(edges))
	var scratch []int32
	for i, ed := range edges {
		ends[i] = [2][]int32{slices.Clone(endRows[ed.U]), slices.Clone(endRows[ed.V])}
		if i == len(edges)-1 {
			break
		}
		for _, row := range endRows {
			scratch = sweepRow(row, edges[i:i+1], ends[i:i+1], scratch[:0])
		}
	}
	e.rt.AccountCompute(time.Since(start))
	return ends
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

// gatherRows snapshots the current DV row of each vertex from its owner and
// accounts one tree broadcast per owner, carrying all of that owner's rows.
// On a partial (multi-process) engine only resident owners' rows are
// readable here; the runtime's row all-gather merges in the rows contributed
// by the other workers, which run the same mutation with the same vertex
// set. The error is always nil on single-process runtimes.
func (e *Engine) gatherRows(ids []graph.ID) (map[graph.ID][]int32, error) {
	out := make(map[graph.ID][]int32, len(ids))
	bytes := make([]int, e.opts.P)
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
		bytes[o] += 4 + 4*len(row)
	}
	for o, b := range bytes {
		if b > 0 {
			e.rt.Broadcast(o, &cluster.Mail{Payload: o, Bytes: b})
		}
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
// merged over the surviving partial results. It never runs an RC step: the
// deletion is folded into the analysis wherever it stands, and the engine is
// left un-converged for Step/Run to re-reach the fixpoint.
//
// The invalidation is picked from the engine's own state (atFixpoint):
//   - At the fixpoint, the exact through-edge test: "entry (x,t) may be
//     supported through deleted edge {u,v} iff d(x,t) >= d(x,u)+w+d(v,t) or
//     the symmetric bound". Every surviving entry is reused — the titled
//     paper's streaming setting, where deletions update maintained closeness
//     state. The test is sound only on exact distances: on partial upper
//     bounds it can miss entries whose supporting path walks through the
//     edge but whose value was derived without consulting the endpoint rows
//     (e.g. inside one local Dijkstra).
//   - Otherwise, the row wipe (wipeSuspectRows), sound on any partial state.
//
// The whole batch is validated before anything mutates — a dead or
// out-of-range endpoint or a self-loop rejects the batch intact. Pairs that
// name no live edge between live vertices are skipped (deletes are
// idempotent).
func (e *Engine) applyEdgeDeletions(pairs [][2]graph.ID) error {
	batch, err := e.deletionBatch(pairs)
	if err != nil || len(batch) == 0 {
		return err
	}
	batch = sortedEdgeList(batch)
	invalidate := func(pr *proc) (hit, holes []graph.ID) { return pr.wipeSuspectRows(e, batch) }
	if e.atFixpoint() {
		endRows, err := e.gatherRows(edgeEndpoints(batch))
		if err != nil {
			return err
		}
		invalidate = func(pr *proc) (hit, holes []graph.ID) {
			return pr.invalidateThroughEdges(e, batch, endRows)
		}
	}
	for _, ed := range batch {
		e.g.RemoveEdge(ed.U, ed.V)
		e.invalidateMask(ed.U)
		e.invalidateMask(ed.V)
	}
	e.invalidateAndReseed(invalidate)
	e.conv = false
	return nil
}

// atFixpoint reports whether the distances are exact, which is what the
// exact deletion test needs. In one process that is the convergence flag. A
// worker's own flag covers only its resident slice and differs between
// workers, which would split the cluster over the two invalidations (only
// one of them runs a row all-gather); a partial engine therefore also needs
// the coordinator's verdict that the whole cluster was converged when the
// current command was issued (runtime.Partial.Converged). An earlier op of
// the same command that changed anything cleared the flag on every worker
// alike.
func (e *Engine) atFixpoint() bool {
	return e.conv && (e.partial == nil || e.partial.Converged())
}

// invalidateThroughEdges is the exact invalidation on converged state: it
// sweeps every stored row (local rows and external snapshots) with the
// deletion invalidation test for the whole batch and returns the local rows
// and the snapshots that lost entries.
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
	// External snapshots are this processor's own arrays: shard the sweeps
	// over the sorted id list.
	swept := sortedExtIDs(pr.ext)
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

// invalidateAndReseed is the body both invalidations share. On every
// resident processor, invalidate removes the entries the deleted edges may
// support — every stored row before any re-derivation, so no relaxation can
// re-poison entries from a not-yet-swept row — and returns the local rows it
// hit (ascending) and the external snapshots it punched holes in or dropped.
// Hit rows are then re-derived: a fresh local Dijkstra is merged in (reusing
// every surviving partial result; disjoint rows, sharded over the pool) and
// the row pulls from its neighbours' rows, restoring the closure relax keeps
// (SSSP-Del's invalidate-then-recompute). The pull reads live local rows, so
// it runs sequentially; each hit row is queued for a full push and send, so
// the rows it feeds re-derive from it at the next relax. Snapshots with holes
// are stale until their owner re-sends, so a full refresh of the owner's
// intact row is queued for the next exchange.
func (e *Engine) invalidateAndReseed(invalidate func(pr *proc) (hit, holes []graph.ID)) {
	refresh := make([][]graph.ID, e.opts.P)
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		pr.ensureWorkers(e)
		var hit []graph.ID
		hit, refresh[p] = invalidate(pr)
		for _, x := range hit {
			pr.noteRowFull(x)
		}
		e.runShards(len(hit), e.shardImbReseed(), func(w, lo, hi int) {
			for _, x := range hit[lo:hi] {
				pr.reseed(e, &pr.ws[w], x)
			}
		})
		for _, x := range hit {
			pr.pull(e, x)
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

// wipeSuspectRows is the invalidation on partial state: every local row with
// finite columns for both endpoints of a deleted edge is reset wholesale, and
// every such snapshot is dropped (its owner re-sends after its own reset).
// It needs no distance arithmetic and is sound on any state by row
// path-closure: an entry supported by a path through edge {u,v} always has
// finite u and v columns in its own row. On converged state almost every row
// qualifies, which degenerates toward a restart — hence the exact test there.
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
			pr.dropSnapshot(s)
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
// is a deletion followed by an insertion at the new weight, per the paper's
// edge-weight-change strategy.
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
			if err := e.applyEdgeDeletions([][2]graph.ID{{up.U, up.V}}); err != nil {
				return err
			}
			if err := e.applyEdgeAdditions([]graph.EdgeTriple{up}); err != nil {
				return err
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
			pr.noteRowChanged(e, v, cols)
		})
	})
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
	e.width = width
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		pr.store.Grow(width)
		for v := range pr.ext {
			pr.snapshot(e, v)
		}
		for len(pr.isLocal) < width {
			pr.isLocal = append(pr.isLocal, false)
		}
	})
}
