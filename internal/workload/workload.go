// Package workload generates the dynamic-change workloads of the paper's
// evaluation: community-structured vertex-addition batches extracted from a
// larger graph with Louvain (as the paper did with Pajek), random edge
// additions and deletions, and incremental schedules that spread a batch
// over multiple recombination steps.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/louvain"
)

// Addition is a vertex-addition workload: a base graph to analyse and a
// batch of new vertices (with community structure) to inject during the
// analysis.
type Addition struct {
	// Base is the initial graph (IDs 0..n-1).
	Base *graph.Graph
	// Batch holds the extracted vertices and their edges.
	Batch *core.VertexBatch
	// Communities is the number of whole Louvain communities extracted.
	Communities int
}

// ExtractAddition builds a vertex-addition workload the way the paper did:
// generate a larger community-structured scale-free graph of n+x vertices,
// detect communities with Louvain, extract whole communities until at least
// x vertices are gathered, and present them (with all their edges) as the
// dynamic batch over the remaining base graph. The base is re-connected if
// the extraction fragmented it.
func ExtractAddition(n, x int, seed int64, cfg gen.Config) (*Addition, error) {
	if x < 1 || n < 8 {
		return nil, fmt.Errorf("workload: need n >= 8 and x >= 1 (n=%d, x=%d)", n, x)
	}
	total := n + x
	// Community size ~ max(x/4, 16): several communities per batch so
	// CutEdge-PS has structure to exploit.
	commSize := x / 4
	if commSize < 16 {
		commSize = 16
	}
	k := total / commSize
	if k < 2 {
		k = 2
	}
	big, _ := gen.CommunityScaleFree(total, k, 2, total/20+1, seed, cfg)
	det := louvain.Detect(big, seed+1)
	members := det.Members()
	// Take whole communities (smallest first for tighter fit) until >= x.
	sort.Slice(members, func(i, j int) bool { return len(members[i]) < len(members[j]) })
	extracted := make(map[graph.ID]bool, x)
	comms := 0
	for _, mem := range members {
		if len(extracted) >= x {
			break
		}
		// Never extract everything: the base must keep >= n/2 vertices.
		if len(extracted)+len(mem) > total-n/2 {
			continue
		}
		for _, v := range mem {
			extracted[v] = true
		}
		comms++
	}
	if len(extracted) == 0 {
		return nil, fmt.Errorf("workload: could not extract any community for x=%d", x)
	}
	// Base graph: the remaining vertices, compacted to 0..base-1.
	var keep []graph.ID
	for _, v := range big.Vertices() {
		if !extracted[v] {
			keep = append(keep, v)
		}
	}
	base, toOld := big.InducedSubgraph(keep)
	oldToBase := make(map[graph.ID]graph.ID, len(toOld))
	for i, old := range toOld {
		oldToBase[old] = graph.ID(i)
	}
	rng := rand.New(rand.NewSource(seed + 2))
	gen.Connect(base, rng, cfg)
	// Batch: extracted vertices renumbered 0..count-1, keeping every edge.
	var exIDs []graph.ID
	for v := range extracted {
		exIDs = append(exIDs, v)
	}
	sort.Slice(exIDs, func(i, j int) bool { return exIDs[i] < exIDs[j] })
	exIdx := make(map[graph.ID]int, len(exIDs))
	for i, v := range exIDs {
		exIdx[v] = i
	}
	batch := &core.VertexBatch{Count: len(exIDs)}
	for _, v := range exIDs {
		for _, e := range big.Neighbors(v) {
			if j, ok := exIdx[e.To]; ok {
				if exIdx[v] < j {
					batch.Internal = append(batch.Internal, core.BatchEdge{A: exIdx[v], B: j, W: e.W})
				}
			} else {
				batch.External = append(batch.External, core.AttachEdge{New: exIdx[v], To: oldToBase[e.To], W: e.W})
			}
		}
	}
	return &Addition{Base: base, Batch: batch, Communities: comms}, nil
}

// Incremental spreads one batch over several injections while preserving
// batch-internal edges: edges between a chunk and an already-injected chunk
// become external edges against the real IDs the engine assigned.
type Incremental struct {
	batch    *core.VertexBatch
	perChunk int
	next     int
	assigned []graph.ID // real ID of each already-injected batch vertex
}

// NewIncremental splits batch into ceil(count/chunks) injections.
func NewIncremental(batch *core.VertexBatch, chunks int) *Incremental {
	if chunks < 1 {
		chunks = 1
	}
	per := (batch.Count + chunks - 1) / chunks
	return &Incremental{
		batch:    batch,
		perChunk: per,
		assigned: make([]graph.ID, batch.Count),
	}
}

// Remaining reports how many batch vertices are still to inject.
func (inc *Incremental) Remaining() int { return inc.batch.Count - inc.next }

// Next returns the next chunk to inject, or nil when exhausted. After the
// engine applies it, the caller must pass the assigned IDs to NoteIDs.
func (inc *Incremental) Next() *core.VertexBatch {
	if inc.next >= inc.batch.Count {
		return nil
	}
	lo := inc.next
	hi := lo + inc.perChunk
	if hi > inc.batch.Count {
		hi = inc.batch.Count
	}
	chunk := &core.VertexBatch{Count: hi - lo}
	for _, ed := range inc.batch.Internal {
		a, b := ed.A, ed.B
		if a > b {
			a, b = b, a
		}
		switch {
		case a >= lo && b < hi:
			chunk.Internal = append(chunk.Internal, core.BatchEdge{A: a - lo, B: b - lo, W: ed.W})
		case b >= lo && b < hi && a < lo:
			// Earlier endpoint already lives in the graph.
			chunk.External = append(chunk.External, core.AttachEdge{New: b - lo, To: inc.assigned[a], W: ed.W})
		case a >= lo && a < hi && b >= hi:
			// Later endpoint not injected yet: deferred to its chunk.
		}
	}
	for _, ed := range inc.batch.External {
		if ed.New >= lo && ed.New < hi {
			chunk.External = append(chunk.External, core.AttachEdge{New: ed.New - lo, To: ed.To, W: ed.W})
		}
	}
	return chunk
}

// NoteIDs records the engine-assigned IDs of the chunk returned by the last
// Next call, enabling deferred cross-chunk edges.
func (inc *Incremental) NoteIDs(ids []graph.ID) {
	for i, id := range ids {
		inc.assigned[inc.next+i] = id
	}
	inc.next += len(ids)
}

// Target is the mutation surface an incremental schedule drives. Both
// *core.Engine (direct application between steps) and an anytime.Session
// (application through the serialized mutation queue at the next step
// boundary) implement it.
type Target interface {
	ApplyBatch(b *core.Batch) error
}

// Inject applies the next chunk to t and records the assigned IDs, returning
// how many vertices were injected (0 when the schedule is exhausted).
func (inc *Incremental) Inject(t Target, ps core.ProcessorAssigner) (int, error) {
	chunk := inc.Next()
	if chunk == nil {
		return 0, nil
	}
	b := &core.Batch{Ops: []core.Mutation{core.VertexAdd(chunk, ps)}}
	if err := t.ApplyBatch(b); err != nil {
		return 0, err
	}
	ids := b.Ops[0].AssignedIDs
	inc.NoteIDs(ids)
	return len(ids), nil
}

// InjectAll drains the schedule into t, one chunk per call. With a session
// target each chunk is enqueued and applied at a step boundary, so the
// injections land on consecutive recombination steps.
func (inc *Incremental) InjectAll(t Target, ps core.ProcessorAssigner) error {
	for inc.Remaining() > 0 {
		if _, err := inc.Inject(t, ps); err != nil {
			return err
		}
	}
	return nil
}

// RandomEdgeAdditions returns count new (non-existing) edges over the live
// vertices of g, weights in [1, maxW]. Any read-only view works, including a
// live engine's Graph() between steps.
func RandomEdgeAdditions(g graph.View, count int, maxW int32, seed int64) []graph.EdgeTriple {
	rng := rand.New(rand.NewSource(seed))
	live := g.Vertices()
	if maxW < 1 {
		maxW = 1
	}
	var out []graph.EdgeTriple
	chosen := make(map[[2]graph.ID]bool, count)
	for tries := 0; len(out) < count && tries < 100*count+1000; tries++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if chosen[[2]graph.ID{u, v}] || g.HasEdge(u, v) {
			continue
		}
		chosen[[2]graph.ID{u, v}] = true
		out = append(out, graph.EdgeTriple{U: u, V: v, W: 1 + rng.Int31n(maxW)})
	}
	return out
}

// RandomEdgeDeletions returns up to count existing edges whose joint removal
// keeps g connected (the paper's closeness experiments need finite sums).
// g itself is not modified.
func RandomEdgeDeletions(g graph.View, count int, seed int64) [][2]graph.ID {
	rng := rand.New(rand.NewSource(seed))
	work := g.Clone()
	var out [][2]graph.ID
	edges := work.Edges()
	for tries := 0; len(out) < count && tries < 50*count+500 && len(edges) > 0; tries++ {
		ed := edges[rng.Intn(len(edges))]
		if !work.HasEdge(ed.U, ed.V) {
			continue
		}
		work.RemoveEdge(ed.U, ed.V)
		if work.IsConnected() {
			out = append(out, [2]graph.ID{ed.U, ed.V})
		} else {
			work.AddEdge(ed.U, ed.V, ed.W)
		}
	}
	return out
}

// Churn generates an endless sustained-ingest stream of typed mutations for
// throughput benchmarks and smoke tests: edge additions of currently-absent
// pairs, deletions and weight-decreasing re-adds of edges the stream
// itself added. It tracks only its own additions in a private mirror — it
// never touches pre-existing graph edges — so every emitted mutation is
// valid against any engine state the stream alone produced, and the
// generator stays correct even when the consumer drops ops (a full
// fail-fast queue): a dropped add just means the later delete of that pair
// skips silently. Deterministic for a given seed; not safe for concurrent
// use.
type Churn struct {
	rng  *rand.Rand
	live []graph.ID
	maxW int32
	mine map[[2]graph.ID]bool // pairs this stream added (pre-existing edges excluded)
	ring [][2]graph.ID        // insertion-ordered view of mine for random picks
}

// NewChurn builds a churn stream over the live vertices of g (captured at
// call time — vertex additions/removals during the stream are not tracked).
func NewChurn(g graph.View, maxW int32, seed int64) *Churn {
	if maxW < 1 {
		maxW = 1
	}
	c := &Churn{
		rng:  rand.New(rand.NewSource(seed)),
		live: append([]graph.ID(nil), g.Vertices()...),
		maxW: maxW,
		mine: make(map[[2]graph.ID]bool),
	}
	// Exclude the base edges so the stream never deletes or reweights
	// anything it does not own.
	for _, ed := range g.Edges() {
		u, v := ed.U, ed.V
		if u > v {
			u, v = v, u
		}
		c.mine[[2]graph.ID{u, v}] = false // known, not ours
	}
	return c
}

// Next returns the stream's next mutation. The mix is roughly 60% additions,
// 25% deletions of stream-added edges, 15% weight-decreasing re-adds
// (an improving AddEdge, the engine's cheap weight path); while the stream
// owns no edges yet it emits additions only.
func (c *Churn) Next() core.Mutation {
	roll := c.rng.Intn(20)
	switch {
	case roll < 5 && len(c.ring) > 0:
		p := c.ring[c.rng.Intn(len(c.ring))]
		if c.mine[p] {
			c.mine[p] = false
			return core.EdgeDelete(p)
		}
		fallthrough
	case roll < 8 && len(c.ring) > 0:
		p := c.ring[c.rng.Intn(len(c.ring))]
		if c.mine[p] {
			// Weight 1 is always (weakly) improving, so the re-add never
			// depends on what the previous weight was.
			return core.EdgeAdd(graph.EdgeTriple{U: p[0], V: p[1], W: 1})
		}
		fallthrough
	default:
		for tries := 0; tries < 64; tries++ {
			u := c.live[c.rng.Intn(len(c.live))]
			v := c.live[c.rng.Intn(len(c.live))]
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			p := [2]graph.ID{u, v}
			if known, seen := c.mine[p]; seen && !known {
				continue // base edge or already churning: next try
			}
			if c.mine[p] {
				continue
			}
			if _, seen := c.mine[p]; !seen {
				c.ring = append(c.ring, p)
			}
			c.mine[p] = true
			return core.EdgeAdd(graph.EdgeTriple{U: u, V: v, W: 1 + c.rng.Int31n(c.maxW)})
		}
		// Dense graph fallback: re-add an owned edge (or a no-op empty add).
		if len(c.ring) > 0 {
			p := c.ring[c.rng.Intn(len(c.ring))]
			return core.EdgeAdd(graph.EdgeTriple{U: p[0], V: p[1], W: 1})
		}
		return core.EdgeAdd()
	}
}
