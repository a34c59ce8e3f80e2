// Package changelog defines a line-oriented text format for streams of
// dynamic graph changes and a replayer that feeds them into a running
// engine — the tooling face of the paper's "anywhere" property: record the
// evolution of a real network as a change log, then replay it against an
// analysis at the recorded recombination steps.
//
// Format (one event per line, '#' comments and blank lines ignored):
//
//	@<step>                          following events fire at RC step <step>
//	addedge <u> <v> [w]              insert/lighten an undirected edge
//	deledge <u> <v>                  delete an edge
//	setweight <u> <v> <w>            change an edge weight
//	addvertex <name>                 add one vertex (names map to new IDs)
//	attach <name|id> <name|id> [w]   edge whose endpoints may be new names
//	delvertex <name|id>              delete a vertex
//
// New vertices are declared with addvertex and referenced by name; existing
// vertices by numeric ID. Events between two @step markers form one batch
// applied atomically at that step.
package changelog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"aacc/internal/core"
	"aacc/internal/graph"
)

// Kind enumerates event types.
type Kind int

// Event kinds in file order of introduction.
const (
	AddEdge Kind = iota
	DelEdge
	SetWeight
	AddVertex
	Attach
	DelVertex
)

// Event is one parsed change. New-vertex endpoints are names; existing
// endpoints are resolved IDs.
type Event struct {
	Kind   Kind
	U, V   graph.ID // resolved IDs, -1 when the endpoint is a new name
	NameU  string   // set when U == -1
	NameV  string   // set when V == -1
	Weight int32
}

// Batch is the set of events applied at one RC step.
type Batch struct {
	Step   int
	Events []Event
}

// Log is a parsed change log: batches sorted by step.
type Log struct {
	Batches []Batch
}

// Parse reads the text format. Events before any @step marker fire at step 0.
func Parse(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	byStep := map[int][]Event{}
	step := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "@") {
			s, err := strconv.Atoi(strings.TrimPrefix(line, "@"))
			if err != nil || s < 0 {
				return nil, fmt.Errorf("changelog: line %d: bad step marker %q", lineNo, line)
			}
			step = s
			continue
		}
		ev, err := parseEvent(line)
		if err != nil {
			return nil, fmt.Errorf("changelog: line %d: %w", lineNo, err)
		}
		byStep[step] = append(byStep[step], ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	log := &Log{}
	steps := make([]int, 0, len(byStep))
	for s := range byStep {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	for _, s := range steps {
		log.Batches = append(log.Batches, Batch{Step: s, Events: byStep[s]})
	}
	return log, nil
}

func parseEvent(line string) (Event, error) {
	f := strings.Fields(line)
	switch f[0] {
	case "addedge", "setweight", "attach":
		if len(f) < 3 {
			return Event{}, fmt.Errorf("%s needs two endpoints", f[0])
		}
		w := int64(1)
		if len(f) >= 4 {
			var err error
			w, err = strconv.ParseInt(f[3], 10, 32)
			if err != nil || w < 1 {
				return Event{}, fmt.Errorf("bad weight %q", f[3])
			}
		}
		if f[0] == "setweight" && len(f) < 4 {
			return Event{}, fmt.Errorf("setweight needs a weight")
		}
		kind := AddEdge
		if f[0] == "setweight" {
			kind = SetWeight
		}
		if f[0] == "attach" {
			kind = Attach
		}
		ev := Event{Kind: kind, Weight: int32(w)}
		ev.U, ev.NameU = parseEndpoint(f[1])
		ev.V, ev.NameV = parseEndpoint(f[2])
		if kind != Attach && (ev.U < 0 || ev.V < 0) {
			return Event{}, fmt.Errorf("%s endpoints must be numeric IDs", f[0])
		}
		return ev, nil
	case "deledge":
		if len(f) != 3 {
			return Event{}, fmt.Errorf("deledge needs two endpoints")
		}
		ev := Event{Kind: DelEdge}
		ev.U, ev.NameU = parseEndpoint(f[1])
		ev.V, ev.NameV = parseEndpoint(f[2])
		if ev.U < 0 || ev.V < 0 {
			return Event{}, fmt.Errorf("deledge endpoints must be numeric IDs")
		}
		return ev, nil
	case "addvertex":
		if len(f) != 2 {
			return Event{}, fmt.Errorf("addvertex needs a name")
		}
		return Event{Kind: AddVertex, U: -1, NameU: f[1]}, nil
	case "delvertex":
		if len(f) != 2 {
			return Event{}, fmt.Errorf("delvertex needs a vertex")
		}
		ev := Event{Kind: DelVertex}
		ev.U, ev.NameU = parseEndpoint(f[1])
		return ev, nil
	default:
		return Event{}, fmt.Errorf("unknown event %q", f[0])
	}
}

// parseEndpoint resolves a numeric ID, or returns (-1, name) for symbolic
// new-vertex names.
func parseEndpoint(tok string) (graph.ID, string) {
	if id, err := strconv.ParseInt(tok, 10, 32); err == nil && id >= 0 {
		return graph.ID(id), ""
	}
	return -1, tok
}

// Target is the mutation surface a replayer drives: the one entry point
// every layer exposes. *core.Engine implements it directly (mutations
// between steps), a dist.Coordinator by driving its workers, and an
// anytime.Session by enqueueing the ops on its serialized mutation queue, so
// a log can be replayed against a live concurrent analysis.
//
// One semantic difference remains between implementers. Engine and
// Coordinator ApplyBatch stop at the first failing op: the *core.BatchError
// names it, the ops before it stay committed, the ops after it never run.
// Session.ApplyBatch reports the first failure the same way, but the later
// ops of the batch still apply (each queued op fails independently).
type Target interface {
	ApplyBatch(b *core.Batch) error
}

var _ Target = (*core.Engine)(nil)

// Replayer feeds a Log into an engine at the recorded steps.
type Replayer struct {
	log   *Log
	ps    core.ProcessorAssigner
	names map[string]graph.ID // resolved new-vertex names
	next  int                 // next batch index
	// Eager selects barrier-free deletions (core.MutEdgeDeleteEager).
	Eager bool
}

// NewReplayer builds a replayer using ps to place new vertices (nil =
// RoundRobin-PS).
func NewReplayer(log *Log, ps core.ProcessorAssigner) *Replayer {
	if ps == nil {
		ps = &core.RoundRobinPS{}
	}
	return &Replayer{log: log, ps: ps, names: make(map[string]graph.ID)}
}

// Done reports whether every batch has been applied.
func (r *Replayer) Done() bool { return r.next >= len(r.log.Batches) }

// NextStep returns the step at which the next pending batch is due, or -1
// when every batch has been applied.
func (r *Replayer) NextStep() int {
	if r.Done() {
		return -1
	}
	return r.log.Batches[r.next].Step
}

// ApplyDue applies every pending batch due at or before step to t. Callers
// that control stepping themselves (sessions, custom drivers) use this
// instead of Step.
func (r *Replayer) ApplyDue(t Target, step int) error {
	for !r.Done() && r.log.Batches[r.next].Step <= step {
		if err := r.apply(t, r.log.Batches[r.next]); err != nil {
			return err
		}
		r.next++
	}
	return nil
}

// Resolve returns the engine ID assigned to a named new vertex.
func (r *Replayer) Resolve(name string) (graph.ID, bool) {
	id, ok := r.names[name]
	return id, ok
}

// Step advances the engine by one RC step and applies any batches due at or
// before the engine's step count. Call in a loop until Done, then run the
// engine to convergence.
func (r *Replayer) Step(e *core.Engine) error {
	if _, err := e.Step(); err != nil {
		return err
	}
	return r.ApplyDue(e, e.StepCount())
}

// ReplayAll drives the engine until every batch is applied and the analysis
// has converged.
func (r *Replayer) ReplayAll(e *core.Engine) error {
	for !r.Done() {
		if err := r.Step(e); err != nil {
			return err
		}
	}
	_, err := e.Run()
	return err
}

// apply lowers a log batch to at most three mutation batches, applied in
// this order and stopping at the first error: new vertices and their
// attachments (one VertexBatch, whose assigned IDs resolve the names), the
// plain edge events, then the vertex removals.
func (r *Replayer) apply(e Target, b Batch) error {
	// Collect the batch's new vertices in declaration order.
	var newNames []string
	nameIdx := map[string]int{}
	for _, ev := range b.Events {
		if ev.Kind == AddVertex {
			if _, dup := nameIdx[ev.NameU]; dup {
				return fmt.Errorf("changelog: duplicate vertex name %q in step %d", ev.NameU, b.Step)
			}
			if _, known := r.names[ev.NameU]; known {
				return fmt.Errorf("changelog: vertex name %q reused in step %d", ev.NameU, b.Step)
			}
			nameIdx[ev.NameU] = len(newNames)
			newNames = append(newNames, ev.NameU)
		}
	}
	vb := &core.VertexBatch{Count: len(newNames)}
	resolve := func(id graph.ID, name string) (graph.ID, int, error) {
		if id >= 0 {
			return id, -1, nil
		}
		if i, ok := nameIdx[name]; ok {
			return -1, i, nil
		}
		if rid, ok := r.names[name]; ok {
			return rid, -1, nil
		}
		return -1, -1, fmt.Errorf("changelog: unknown vertex %q", name)
	}
	var edgeAdds, weights []graph.EdgeTriple
	var edgeDels [][2]graph.ID
	var vertexDels []graph.ID
	for _, ev := range b.Events {
		switch ev.Kind {
		case AddVertex:
			// handled above
		case AddEdge:
			edgeAdds = append(edgeAdds, graph.EdgeTriple{U: ev.U, V: ev.V, W: ev.Weight})
		case DelEdge:
			edgeDels = append(edgeDels, [2]graph.ID{ev.U, ev.V})
		case SetWeight:
			weights = append(weights, graph.EdgeTriple{U: ev.U, V: ev.V, W: ev.Weight})
		case DelVertex:
			id, _, err := resolve(ev.U, ev.NameU)
			if err != nil {
				return err
			}
			vertexDels = append(vertexDels, id)
		case Attach:
			uid, ui, err := resolve(ev.U, ev.NameU)
			if err != nil {
				return err
			}
			vid, vi, err := resolve(ev.V, ev.NameV)
			if err != nil {
				return err
			}
			switch {
			case ui >= 0 && vi >= 0:
				vb.Internal = append(vb.Internal, core.BatchEdge{A: ui, B: vi, W: ev.Weight})
			case ui >= 0:
				vb.External = append(vb.External, core.AttachEdge{New: ui, To: vid, W: ev.Weight})
			case vi >= 0:
				vb.External = append(vb.External, core.AttachEdge{New: vi, To: uid, W: ev.Weight})
			default:
				edgeAdds = append(edgeAdds, graph.EdgeTriple{U: uid, V: vid, W: ev.Weight})
			}
		}
	}
	if vb.Count > 0 {
		add := &core.Batch{Ops: []core.Mutation{core.VertexAdd(vb, r.ps)}}
		if err := e.ApplyBatch(add); err != nil {
			return err
		}
		for i, name := range newNames {
			r.names[name] = add.Ops[0].AssignedIDs[i]
		}
	}
	// Fold the step's edge events into one typed batch — additions, weight
	// changes, then deletions — so a session target applies them as one
	// coalesced unit with a single epoch publication.
	eb := &core.Batch{}
	if len(edgeAdds) > 0 {
		eb.Ops = append(eb.Ops, core.EdgeAdd(edgeAdds...))
	}
	for _, wc := range weights {
		eb.Ops = append(eb.Ops, core.WeightSet(wc.U, wc.V, wc.W))
	}
	if len(edgeDels) > 0 {
		if r.Eager {
			eb.Ops = append(eb.Ops, core.EdgeDeleteEager(edgeDels...))
		} else {
			eb.Ops = append(eb.Ops, core.EdgeDelete(edgeDels...))
		}
	}
	if len(eb.Ops) > 0 {
		if err := e.ApplyBatch(eb); err != nil {
			return err
		}
	}
	if len(vertexDels) > 0 {
		return e.ApplyBatch(&core.Batch{Ops: []core.Mutation{core.VertexRemove(vertexDels...)}})
	}
	return nil
}
