package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"aacc/internal/graph"
)

// Checkpointing: the paper's future work includes fault tolerance for cloud
// platforms. A checkpoint captures the graph, the vertex-to-processor
// assignment and every distance-vector row — the complete anytime state —
// so an analysis can resume after full cluster loss with all partial
// results intact (the anytime property makes the checkpoint useful at any
// step, not only at convergence).

// checkpointPayload is the gob wire format. Field names are part of the
// on-disk format; extend, don't repurpose.
type checkpointPayload struct {
	Version  int
	NumIDs   int
	Removed  []bool
	Edges    []graph.EdgeTriple
	Owner    []int16
	Step     int
	RowIDs   []graph.ID
	Rows     [][]int32
	P        int
	Seed     int64
	MaxSteps int
}

const checkpointVersion = 1

// WriteCheckpoint serialises the engine's full anytime state. Safe between
// RC steps (never concurrently with Step or ApplyBatch).
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	if e.Partial() {
		return fmt.Errorf("core: checkpointing is not supported on a partial (multi-process worker) engine")
	}
	pl := checkpointPayload{
		Version:  checkpointVersion,
		NumIDs:   e.g.NumIDs(),
		Removed:  make([]bool, e.g.NumIDs()),
		Edges:    e.g.Edges(),
		Owner:    append([]int16(nil), e.owner...),
		Step:     e.step,
		P:        e.opts.P,
		Seed:     e.opts.Seed,
		MaxSteps: e.opts.MaxSteps,
	}
	for v := 0; v < e.g.NumIDs(); v++ {
		pl.Removed[v] = !e.g.Has(graph.ID(v))
	}
	var ids []graph.ID
	for _, pr := range e.procs {
		ids = append(ids, pr.local...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		pl.RowIDs = append(pl.RowIDs, v)
		pl.Rows = append(pl.Rows, e.procs[e.owner[v]].store.CloneRow(v))
	}
	return gob.NewEncoder(w).Encode(&pl)
}

// LoadCheckpoint reconstructs an engine from a checkpoint. The restored
// engine keeps the checkpoint's processor count, ownership and partial
// results; opts may override the partitioner and cost model (used by later
// MutRepartition ops). Boundary snapshots are not checkpointed — every row is
// queued for a full exchange, so the first RC steps after restore rebuild
// them and convergence proceeds from exactly the checkpointed quality.
func LoadCheckpoint(r io.Reader, opts Options) (*Engine, error) {
	var pl checkpointPayload
	if err := gob.NewDecoder(r).Decode(&pl); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if pl.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", pl.Version, checkpointVersion)
	}
	if pl.P < 1 || pl.P > 64 {
		return nil, fmt.Errorf("core: checkpoint has invalid P=%d", pl.P)
	}
	g := graph.New(pl.NumIDs)
	for v, dead := range pl.Removed {
		if dead {
			g.RemoveVertex(graph.ID(v))
		}
	}
	for _, ed := range pl.Edges {
		g.AddEdge(ed.U, ed.V, ed.W)
	}
	opts.P = pl.P
	if opts.Seed == 0 {
		opts.Seed = pl.Seed
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = pl.MaxSteps
	}
	e, err := newEngine(g, opts)
	if err != nil {
		return nil, err
	}
	e.width = pl.NumIDs
	e.maskCache = make([]uint64, e.width)
	e.maskValid = make([]bool, e.width)
	if len(pl.Owner) != pl.NumIDs {
		return nil, fmt.Errorf("core: checkpoint owner table has %d entries, want %d", len(pl.Owner), pl.NumIDs)
	}
	e.owner = pl.Owner
	e.step = pl.Step
	e.procs = make([]*proc, pl.P)
	for p := range e.procs {
		e.procs[p] = newProc(p, e.width)
	}
	if len(pl.RowIDs) != len(pl.Rows) {
		return nil, fmt.Errorf("core: checkpoint rows malformed")
	}
	for i, v := range pl.RowIDs {
		if int(v) >= pl.NumIDs || e.owner[v] < 0 || int(e.owner[v]) >= pl.P {
			return nil, fmt.Errorf("core: checkpoint row %d has invalid owner", v)
		}
		if len(pl.Rows[i]) != pl.NumIDs {
			return nil, fmt.Errorf("core: checkpoint row %d has width %d, want %d", v, len(pl.Rows[i]), pl.NumIDs)
		}
		pr := e.procs[e.owner[v]]
		pr.store.AdoptRow(v, pl.Rows[i])
		pr.local = append(pr.local, v)
		pr.isLocal[v] = true
	}
	for _, v := range g.Vertices() {
		if e.owner[v] < 0 || !e.procs[e.owner[v]].isLocal[v] {
			return nil, fmt.Errorf("core: checkpoint missing row for live vertex %d", v)
		}
	}
	// No snapshots survive a restore: queue everything for full exchange.
	e.rt.Parallel(func(p int) {
		pr := e.procs[p]
		sort.Slice(pr.local, func(i, j int) bool { return pr.local[i] < pr.local[j] })
		for _, v := range pr.local {
			pr.noteRowFull(v)
		}
	})
	e.conv = false
	return e, nil
}
