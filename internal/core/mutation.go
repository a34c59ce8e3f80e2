package core

import (
	"fmt"

	"aacc/internal/graph"
)

// This file defines the typed mutation representation the ingestion pipeline
// is built on: every dynamic-update operation the engine supports is one
// Mutation value, a Batch is an ordered sequence of them applied at one step
// boundary, and Coalesce merges compatible neighbours so a write-heavy
// stream pays one batch apply + one snapshot publish per boundary instead of
// one per operation (anytime.Session drains its bounded queue through it).

// MutationKind enumerates the dynamic-update operations.
type MutationKind uint8

const (
	// MutNone is the kind of the zero Mutation; applying it is a no-op.
	MutNone MutationKind = iota
	// MutEdgeAdd inserts edges (or decreases existing weights) via the
	// paper's Fig. 3 incremental relaxation.
	MutEdgeAdd
	// MutEdgeDelete removes edges in barrier mode: the analysis converges
	// first, then invalidates exactly the supported entries.
	MutEdgeDelete
	// MutEdgeDeleteEager removes edges without the convergence barrier at
	// the price of coarser (wholesale row) invalidation.
	MutEdgeDeleteEager
	// MutSetWeight sets existing edges to new absolute weights (decrease =
	// relaxation, increase = delete + reinsert).
	MutSetWeight
	// MutVertexAdd adds a VertexBatch placed by a ProcessorAssigner.
	MutVertexAdd
	// MutVertexRemove retires live vertices and their incident edges.
	MutVertexRemove
	// MutRepartition runs a Repartition-S pass (optionally adding a batch).
	MutRepartition
)

// String names the kind the way the engine's trace events do.
func (k MutationKind) String() string {
	switch k {
	case MutNone:
		return "none"
	case MutEdgeAdd:
		return "edge-add"
	case MutEdgeDelete:
		return "edge-delete"
	case MutEdgeDeleteEager:
		return "edge-delete-eager"
	case MutSetWeight:
		return "set-weight"
	case MutVertexAdd:
		return "vertex-add"
	case MutVertexRemove:
		return "vertex-remove"
	case MutRepartition:
		return "repartition"
	}
	return fmt.Sprintf("mutation-kind-%d", uint8(k))
}

// Mutation is the sum type over every dynamic-update operation. Exactly the
// payload fields of the Kind are meaningful; the rest stay zero. The result
// fields are filled in by Engine.ApplyBatch so asynchronous pipelines can
// hand results back to the enqueuer once the batch has been applied.
type Mutation struct {
	Kind MutationKind

	// Edges carries MutEdgeAdd (edges to insert) and MutSetWeight (target
	// edges with their new absolute weights).
	Edges []graph.EdgeTriple
	// Pairs carries MutEdgeDelete / MutEdgeDeleteEager endpoints.
	Pairs [][2]graph.ID
	// Verts carries MutVertexRemove.
	Verts []graph.ID
	// Batch carries MutVertexAdd (required) and MutRepartition (optional:
	// nil means pure rebalancing).
	Batch *VertexBatch
	// Assign places MutVertexAdd's vertices (required for that kind).
	Assign ProcessorAssigner

	// AssignedIDs is filled by ApplyBatch for MutVertexAdd: the IDs the
	// engine assigned to the batch vertices.
	AssignedIDs []graph.ID
	// Repart is filled by ApplyBatch for MutRepartition.
	Repart *RepartitionResult
}

// EdgeAdd builds a MutEdgeAdd over the given edges (slice not copied).
func EdgeAdd(edges ...graph.EdgeTriple) Mutation {
	return Mutation{Kind: MutEdgeAdd, Edges: edges}
}

// EdgeDelete builds a barrier-mode MutEdgeDelete (slice not copied).
func EdgeDelete(pairs ...[2]graph.ID) Mutation {
	return Mutation{Kind: MutEdgeDelete, Pairs: pairs}
}

// EdgeDeleteEager builds a MutEdgeDeleteEager (slice not copied).
func EdgeDeleteEager(pairs ...[2]graph.ID) Mutation {
	return Mutation{Kind: MutEdgeDeleteEager, Pairs: pairs}
}

// WeightSet builds a single-edge MutSetWeight.
func WeightSet(u, v graph.ID, w int32) Mutation {
	return Mutation{Kind: MutSetWeight, Edges: []graph.EdgeTriple{{U: u, V: v, W: w}}}
}

// VertexAdd builds a MutVertexAdd (batch not copied).
func VertexAdd(batch *VertexBatch, ps ProcessorAssigner) Mutation {
	return Mutation{Kind: MutVertexAdd, Batch: batch, Assign: ps}
}

// VertexRemove builds a MutVertexRemove (slice not copied).
func VertexRemove(ids ...graph.ID) Mutation {
	return Mutation{Kind: MutVertexRemove, Verts: ids}
}

// RepartitionOp builds a MutRepartition (nil batch = pure rebalancing).
func RepartitionOp(batch *VertexBatch) Mutation {
	return Mutation{Kind: MutRepartition, Batch: batch}
}

// Validate checks the mutation structurally — everything that can be checked
// without graph access (negative IDs, self-loops, non-positive weights,
// batch index ranges, missing assigner). Liveness of the referenced vertices
// and edges is checked at apply time by the per-kind helper behind
// applyMutation.
func (m *Mutation) Validate() error {
	switch m.Kind {
	case MutNone:
	case MutEdgeAdd, MutSetWeight:
		for _, ed := range m.Edges {
			if ed.U < 0 || ed.V < 0 || ed.U == ed.V || ed.W < 1 {
				return fmt.Errorf("core: bad %s edge {%d,%d,%d}", m.Kind, ed.U, ed.V, ed.W)
			}
		}
	case MutEdgeDelete, MutEdgeDeleteEager:
		for _, p := range m.Pairs {
			if p[0] < 0 || p[1] < 0 || p[0] == p[1] {
				return fmt.Errorf("core: bad %s pair {%d,%d}", m.Kind, p[0], p[1])
			}
		}
	case MutVertexAdd:
		if m.Batch == nil {
			return fmt.Errorf("core: %s without a vertex batch", m.Kind)
		}
		if m.Assign == nil {
			return fmt.Errorf("core: %s without a processor assigner", m.Kind)
		}
		return m.Batch.Validate()
	case MutVertexRemove:
		for _, v := range m.Verts {
			if v < 0 {
				return fmt.Errorf("core: bad %s vertex %d", m.Kind, v)
			}
		}
	case MutRepartition:
		if m.Batch != nil {
			return m.Batch.Validate()
		}
	default:
		return fmt.Errorf("core: unknown mutation kind %d", uint8(m.Kind))
	}
	return nil
}

// Empty reports whether applying the mutation is structurally a no-op.
// Repartition is never empty: even a nil batch rebalances ownership.
func (m *Mutation) Empty() bool {
	switch m.Kind {
	case MutNone:
		return true
	case MutEdgeAdd, MutSetWeight:
		return len(m.Edges) == 0
	case MutEdgeDelete, MutEdgeDeleteEager:
		return len(m.Pairs) == 0
	case MutVertexAdd:
		return m.Batch == nil || m.Batch.Count == 0
	case MutVertexRemove:
		return len(m.Verts) == 0
	}
	return false
}

// Clone deep-copies the payload slices (and the vertex batch) so the caller
// may reuse its inputs after an asynchronous enqueue. The assigner is shared:
// assigners are engine-side strategy objects, not data.
func (m *Mutation) Clone() Mutation {
	cp := Mutation{Kind: m.Kind, Assign: m.Assign}
	if m.Edges != nil {
		cp.Edges = append([]graph.EdgeTriple(nil), m.Edges...)
	}
	if m.Pairs != nil {
		cp.Pairs = append([][2]graph.ID(nil), m.Pairs...)
	}
	if m.Verts != nil {
		cp.Verts = append([]graph.ID(nil), m.Verts...)
	}
	if m.Batch != nil {
		cp.Batch = m.Batch.Clone()
	}
	return cp
}

// Clone deep-copies a vertex batch.
func (b *VertexBatch) Clone() *VertexBatch {
	return &VertexBatch{
		Count:    b.Count,
		Internal: append([]BatchEdge(nil), b.Internal...),
		External: append([]AttachEdge(nil), b.External...),
	}
}

// Batch is an ordered sequence of mutations applied at one step boundary.
// The canonical application order is the slice order: ApplyBatch applies
// Ops[0], Ops[1], ... exactly as if each had been applied alone, which is
// what makes coalesced schedules comparable against a one-op-at-a-time
// oracle.
type Batch struct {
	Ops []Mutation
}

// Validate checks every op structurally; the first bad op is reported as a
// *BatchError and nothing may be applied.
func (b *Batch) Validate() error {
	for i := range b.Ops {
		if err := b.Ops[i].Validate(); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// BatchError reports the first failing operation of a batch apply. Ops
// before Index were applied and stay applied; the failing op itself mutated
// nothing (every per-kind helper validates its whole input before touching
// state); ops after Index were not attempted.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: batch op %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying per-op error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// ApplyBatch is the engine's only mutation entry point: it validates the
// whole batch structurally (a *BatchError from this stage means nothing was
// applied), then applies the ops strictly in order. Any error is a
// *BatchError identifying the op; result fields (AssignedIDs, Repart) are
// written into the batch's own Mutation values. The engine is left
// un-converged; run Step/Run to propagate the effects.
func (e *Engine) ApplyBatch(b *Batch) error {
	if err := b.Validate(); err != nil {
		e.rec.Record("core", "batch-error", e.spanKey, fmt.Sprintf("validate: %v (nothing applied)", err))
		return err
	}
	for i := range b.Ops {
		if err := e.applyMutation(&b.Ops[i]); err != nil {
			e.rec.Record("core", "batch-error", e.spanKey,
				fmt.Sprintf("op %d/%d failed, committed prefix kept: %v", i, len(b.Ops), err))
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// applyMutation dispatches one mutation to its per-kind helper, filling the
// mutation's result fields.
func (e *Engine) applyMutation(m *Mutation) error {
	switch m.Kind {
	case MutNone:
		return nil
	case MutEdgeAdd:
		return e.applyEdgeAdditions(m.Edges)
	case MutEdgeDelete:
		return e.applyEdgeDeletions(m.Pairs)
	case MutEdgeDeleteEager:
		return e.applyEdgeDeletionsEager(m.Pairs)
	case MutSetWeight:
		return e.setEdgeWeights(m.Edges)
	case MutVertexAdd:
		ids, err := e.applyVertexAdditions(m.Batch, m.Assign)
		m.AssignedIDs = ids
		return err
	case MutVertexRemove:
		return e.removeVertices(m.Verts)
	case MutRepartition:
		res, err := e.repartition(m.Batch)
		m.Repart = res
		return err
	}
	return fmt.Errorf("core: unknown mutation kind %d", uint8(m.Kind))
}

// DecomposeWeightSet returns the canonical delete-then-reinsert decomposition
// of "set edge {u,v} to weight w" — the paper's weight-increase strategy.
// Both the engine's own MutSetWeight increase path and the distributed
// coordinator's rejoin-replay transformation apply exactly this sequence, so
// local and cluster semantics cannot drift. eager selects the barrier-free
// deletion flavour (detached replay, where no exchange rounds are available
// for the convergence barrier); the live path uses the barrier deletion.
func DecomposeWeightSet(u, v graph.ID, w int32, eager bool) [2]Mutation {
	del := Mutation{Kind: MutEdgeDelete, Pairs: [][2]graph.ID{{u, v}}}
	if eager {
		del.Kind = MutEdgeDeleteEager
	}
	return [2]Mutation{del, {Kind: MutEdgeAdd, Edges: []graph.EdgeTriple{{U: u, V: v, W: w}}}}
}

// ApplyUnit is one element of a coalesced schedule: a mutation to apply and
// the contiguous range of input ops it stands for. Units partition the input
// slice: unit i covers ops [First, First+Count).
type ApplyUnit struct {
	Mut   Mutation
	First int
	Count int
}

// Coalesce turns an ordered op stream into a (shorter) schedule of apply
// units by merging adjacent edge-addition ops into one batch. MutEdgeAdd
// applies edges strictly one at a time in input order, so concatenation is
// bit-for-bit identical to the one-op-at-a-time schedule. The input ops are
// not modified; merged units carry freshly allocated payloads.
func Coalesce(ops []Mutation) []ApplyUnit {
	units := make([]ApplyUnit, 0, len(ops))
	for i := 0; i < len(ops); {
		j := i + 1
		if ops[i].Kind == MutEdgeAdd {
			for j < len(ops) && ops[j].Kind == MutEdgeAdd {
				j++
			}
		}
		mut := ops[i]
		if j-i > 1 {
			n := 0
			for k := i; k < j; k++ {
				n += len(ops[k].Edges)
			}
			merged := make([]graph.EdgeTriple, 0, n)
			for k := i; k < j; k++ {
				merged = append(merged, ops[k].Edges...)
			}
			mut = Mutation{Kind: MutEdgeAdd, Edges: merged}
		}
		units = append(units, ApplyUnit{Mut: mut, First: i, Count: j - i})
		i = j
	}
	return units
}
