package core

import (
	"fmt"
	"sort"
	"time"

	"aacc/internal/graph"
	"aacc/internal/partition"
)

// ProcessorAssigner chooses the owner processor of each vertex in a new
// batch — the paper's "processor assignment strategy". Implementations must
// be deterministic given the engine state and batch.
type ProcessorAssigner interface {
	// Assign returns the target processor of each batch vertex.
	Assign(e *Engine, batch *VertexBatch) []int
	// Name identifies the strategy in experiment output.
	Name() string
}

// RoundRobinPS distributes new vertices over the processors in a circular
// fashion: perfectly even counts, O(x) time, but blind to the relationships
// between the new vertices (the paper's minimal-overhead strategy).
type RoundRobinPS struct {
	next int
}

// Name implements ProcessorAssigner.
func (*RoundRobinPS) Name() string { return "RoundRobin-PS" }

// Assign implements ProcessorAssigner. The cursor persists across batches so
// incremental additions stay globally balanced.
func (r *RoundRobinPS) Assign(e *Engine, batch *VertexBatch) []int {
	start := time.Now()
	out := make([]int, batch.Count)
	for i := range out {
		out[i] = r.next
		r.next = (r.next + 1) % e.opts.P
	}
	e.rt.AccountCompute(time.Since(start))
	return out
}

// CutEdgePS is the paper's cut-edge-optimisation strategy: the new vertices
// and the edges *between them* form an independent graph that is partitioned
// into P cut-minimising parts (the paper used serial METIS; here the
// multilevel partitioner). Parts are then mapped to processors to maximise
// adjacency with each processor's existing vertices, so both internal and
// attachment edges tend to stay local. Existing vertices are never migrated,
// matching the paper's design.
type CutEdgePS struct {
	// Partitioner for the new-vertex graph; defaults to partition.Multilevel.
	Partitioner partition.Partitioner
	// Seed for the default partitioner.
	Seed int64
}

// Name implements ProcessorAssigner.
func (*CutEdgePS) Name() string { return "CutEdge-PS" }

// Assign implements ProcessorAssigner.
func (c *CutEdgePS) Assign(e *Engine, batch *VertexBatch) []int {
	start := time.Now()
	part := c.Partitioner
	if part == nil {
		part = partition.Multilevel{Seed: c.Seed}
	}
	// Build the independent graph over the batch.
	ng := graph.New(batch.Count)
	for _, ed := range batch.Internal {
		if !ng.HasEdge(graph.ID(ed.A), graph.ID(ed.B)) {
			ng.AddEdge(graph.ID(ed.A), graph.ID(ed.B), ed.W)
		}
	}
	k := e.opts.P
	if k > batch.Count {
		k = batch.Count
	}
	assign := part.Partition(ng, k)
	// Map parts to processors greedily by attachment affinity: a part
	// prefers the processor owning most of its external neighbours.
	affinity := make([][]int, k) // affinity[part][proc] = attachment edges
	for p := range affinity {
		affinity[p] = make([]int, e.opts.P)
	}
	for _, ed := range batch.External {
		if o := e.Owner(ed.To); o >= 0 {
			affinity[assign.Of(graph.ID(ed.New))][o]++
		}
	}
	type cand struct{ part, proc, score int }
	var cands []cand
	for p := 0; p < k; p++ {
		for q := 0; q < e.opts.P; q++ {
			cands = append(cands, cand{part: p, proc: q, score: affinity[p][q]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].part != cands[j].part {
			return cands[i].part < cands[j].part
		}
		return cands[i].proc < cands[j].proc
	})
	partProc := make([]int, k)
	for i := range partProc {
		partProc[i] = -1
	}
	procTaken := make([]bool, e.opts.P)
	assigned := 0
	for _, cd := range cands {
		if assigned == k {
			break
		}
		if partProc[cd.part] != -1 || procTaken[cd.proc] {
			continue
		}
		partProc[cd.part] = cd.proc
		procTaken[cd.proc] = true
		assigned++
	}
	out := make([]int, batch.Count)
	for i := range out {
		out[i] = partProc[assign.Of(graph.ID(i))]
	}
	e.rt.AccountCompute(time.Since(start))
	return out
}

// remapPartsToOwners relabels the parts of a fresh assignment to maximise
// overlap with the current ownership (greedy maximum matching on the
// overlap matrix). Partition labels are arbitrary; aligning them with the
// incumbent owners minimises how many vertices must migrate their partial
// results — the repartitioning practice of adaptive partitioners like
// ParMETIS.
func (e *Engine) remapPartsToOwners(assign partition.Assignment) {
	p := e.opts.P
	overlap := make([][]int, p)
	for i := range overlap {
		overlap[i] = make([]int, p)
	}
	for _, v := range e.g.Vertices() {
		np := assign.Of(v)
		if old := e.Owner(v); old >= 0 && np >= 0 {
			overlap[np][old]++
		}
	}
	type cand struct{ part, owner, score int }
	var cands []cand
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			cands = append(cands, cand{part: i, owner: j, score: overlap[i][j]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		if cands[a].part != cands[b].part {
			return cands[a].part < cands[b].part
		}
		return cands[a].owner < cands[b].owner
	})
	remap := make([]int, p)
	for i := range remap {
		remap[i] = -1
	}
	taken := make([]bool, p)
	matched := 0
	for _, c := range cands {
		if matched == p {
			break
		}
		if remap[c.part] != -1 || taken[c.owner] {
			continue
		}
		remap[c.part] = c.owner
		taken[c.owner] = true
		matched++
	}
	for v, part := range assign.Part {
		if part >= 0 {
			assign.Part[v] = remap[part]
		}
	}
}

// RepartitionResult reports what Repartition-S did.
type RepartitionResult struct {
	// NewIDs are the identifiers assigned to the batch's vertices.
	NewIDs []graph.ID
	// Migrated counts existing vertices whose owner changed (their partial
	// results were shipped to the new owner).
	Migrated int
}

// repartition implements the paper's Repartition-S strategy for large
// updates: the batch's vertices and edges are added to the graph with *no*
// incremental DV relaxation, the whole grown graph is repartitioned with the
// DD partitioner, existing vertices migrate to their new owners *with their
// partial results* (the anytime property: nothing is recomputed from
// scratch), and new and migrated rows are re-seeded from local Dijkstra runs
// merged over the surviving estimates. A nil batch repartitions without
// adding vertices (pure rebalancing).
//
// Repartitioning changes no edges, so every boundary snapshot a processor
// holds remains a valid upper bound. Snapshots therefore survive: a migrated
// row carries its flow metadata (unsent column changes, which peers hold an
// up-to-date snapshot) to the new owner, who resumes the delta stream where
// the old one stopped. Only the boundary pairs that actually changed pay
// wire bytes — full rows go to new peers, snapshots of pairs that ceased are
// pruned — instead of re-shipping every boundary row wholesale. The relax
// closure the old full exchange provided is kept as pure compute: every
// local row is re-marked as a full relaxation source and every held snapshot
// gets a full pending scan, so the following RC steps re-reach the exact
// fixpoint.
func (e *Engine) repartition(batch *VertexBatch) (*RepartitionResult, error) {
	if e.Partial() {
		return nil, fmt.Errorf("core: repartitioning is not supported on a partial (multi-process worker) engine")
	}
	res := &RepartitionResult{}
	firstNew := graph.ID(e.g.NumIDs()) // batch vertices get IDs >= firstNew
	if batch != nil {
		if err := batch.Validate(); err != nil {
			return nil, err
		}
		for _, ed := range batch.External {
			if !e.g.Has(ed.To) {
				return nil, fmt.Errorf("core: batch attaches to dead vertex %d", ed.To)
			}
		}
		first := e.g.AddVertices(batch.Count)
		e.growTo(e.g.NumIDs())
		for i := 0; i < batch.Count; i++ {
			res.NewIDs = append(res.NewIDs, first+graph.ID(i))
		}
		for _, ed := range batch.Internal {
			e.g.AddEdge(first+graph.ID(ed.A), first+graph.ID(ed.B), ed.W)
		}
		for _, ed := range batch.External {
			e.g.AddEdge(first+graph.ID(ed.New), ed.To, ed.W)
		}
	}
	start := time.Now()
	assign := e.opts.Partitioner.Partition(e.g, e.opts.P)
	e.remapPartsToOwners(assign)
	e.rt.AccountCompute(time.Since(start))
	// Ownership changes wholesale below; every cached peer mask is stale.
	e.invalidateAllMasks()

	// Migrate rows whose owner changed, shipping the partial results along
	// with the row's flow metadata (unsent changes, up-to-date peer set).
	// Migration traffic is batched per (source, destination) processor pair —
	// one message carries every row moving between the pair — so the model's
	// per-message cost is paid per pair, not per row.
	migBytes := make([]int, e.opts.P*e.opts.P)
	var cols []int32 // scratch: a promoted snapshot's unsent columns
	for _, v := range e.g.Vertices() {
		oldOwner := int(e.owner[v])
		newOwner := assign.Of(v)
		e.owner[v] = int16(newOwner)
		if oldOwner == newOwner {
			continue
		}
		dst := e.procs[newOwner]
		if oldOwner >= 0 {
			src := e.procs[oldOwner]
			row := src.store.RemoveRow(v)
			src.isLocal[v] = false
			wasDirty := src.dirtySend.Remove(v)
			src.dirtySrc.Remove(v)
			st := src.meta[v]
			delete(src.meta, v)
			snap, hasSnap := dst.ext[v]
			if hasSnap && st != nil && !st.sendFull && st.upToDate&(1<<uint(newOwner)) != 0 {
				// The new owner already holds a current snapshot (it was a
				// boundary neighbour): promote it to the owned row and ship
				// only the columns changed since the last send.
				cols = st.sendCols.AppendSorted(cols[:0])
				migBytes[oldOwner*e.opts.P+newOwner] += 4 + 8*len(cols)
				dst.dropSnapshot(v)
				for _, c := range cols {
					snap[c] = row[c]
				}
				dst.store.AdoptRow(v, snap)
			} else {
				migBytes[oldOwner*e.opts.P+newOwner] += 4 + 4*len(row)
				dst.store.AdoptRow(v, row)
			}
			if st != nil {
				dst.meta[v] = st
			}
			if wasDirty {
				dst.dirtySend.Add(v)
			}
			res.Migrated++
		} else {
			dst.store.AddRow(v) // new batch vertex
		}
		dst.isLocal[v] = true
	}
	for _, b := range migBytes {
		if b > 0 {
			e.rt.AccountPointToPoint(b)
		}
	}
	// Rebuild per-processor vertex lists. Snapshots and flow metadata are
	// kept — only the boundary pairs that ceased are pruned below.
	e.rt.Parallel(func(p int) {
		e.procs[p].local = e.procs[p].local[:0]
	})
	for _, v := range e.g.Vertices() {
		e.procs[e.owner[v]].local = append(e.procs[e.owner[v]].local, v)
	}
	// Warm the peer-mask cache sequentially: the parallel pass below reads
	// masks of non-local vertices, and the cache's no-race rule is that only
	// a vertex's owner may *write* its entry during parallel phases.
	for _, v := range e.g.Vertices() {
		e.peerMask(v)
	}
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		sort.Slice(pr.local, func(i, j int) bool { return pr.local[i] < pr.local[j] })
		pBit := uint64(1) << uint(p)
		// Prune snapshots of vertices now local to this processor or no
		// longer boundary-adjacent to it (their owner clears our up-to-date
		// bit below, so a later re-pairing starts with a full send).
		for s := range pr.ext {
			if (int(s) < len(pr.isLocal) && pr.isLocal[s]) || e.peerMask(s)&pBit == 0 {
				pr.dropSnapshot(s)
			}
		}
		// Relax closure: migrated rows have never been relaxed against this
		// processor's sources (and vice versa), so mark every surviving
		// snapshot and every local row for a full push — the compute
		// the old full exchange triggered, without the bytes. This subsumes
		// any pending deltas.
		for s := range pr.ext {
			pd := pr.pendingFor(s)
			pd.full = true
			pd.cols.Release()
		}
		// Flow-metadata bookkeeping runs sequentially first (peer-mask reads
		// hit the cache warmed above).
		for _, v := range pr.local {
			pr.isLocal[v] = true
			mask := e.peerMask(v)
			st := pr.state(v)
			// Only current peers may receive deltas: a stale bit for a
			// pruned peer must force a full row on re-pairing.
			st.upToDate &= mask
			st.srcFull = true
			st.srcCols.Release()
			pr.dirtySrc.Add(v)
			// New peers hold no snapshot: queue the row so collectMail
			// ships them a full copy (up-to-date peers get nothing).
			if v < firstNew && mask&^st.upToDate != 0 {
				pr.dirtySend.Add(v)
			}
		}
		// Re-seed every row from a fresh local Dijkstra merged over the
		// surviving estimates (IA-quality local closure on the new subgraph),
		// sharded over the pool; the change notes are applied in the ordered
		// merge.
		pr.ensureWorkers(e)
		e.runShards(len(pr.local), e.shardImbReseed(), func(w, lo, hi int) {
			ws := &pr.ws[w]
			for _, v := range pr.local[lo:hi] {
				// New batch vertices are noted whole below: nobody holds a
				// snapshot yet.
				if changed := pr.reseed(e, ws, v); v < firstNew && len(changed) > 0 {
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
	})
	e.conv = false
	return res, nil
}
