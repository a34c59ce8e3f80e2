package anytime

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aacc/internal/changelog"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
	"aacc/internal/sssp"
	"aacc/internal/workload"
)

func testGraph(n int) *graph.Graph {
	return gen.BarabasiAlbert(n, 2, 11, gen.Config{})
}

// apply submits one mutation through the session's single entry point.
func apply(s *Session, m core.Mutation) error {
	return s.ApplyBatch(&core.Batch{Ops: []core.Mutation{m}})
}

// addVertices applies one vertex batch and returns the assigned IDs.
func addVertices(s *Session, batch *core.VertexBatch, ps core.ProcessorAssigner) ([]graph.ID, error) {
	b := &core.Batch{Ops: []core.Mutation{core.VertexAdd(batch, ps)}}
	err := s.ApplyBatch(b)
	return b.Ops[0].AssignedIDs, err
}

func mustSession(t *testing.T, g *graph.Graph, opts Options) *Session {
	t.Helper()
	if opts.Engine.P == 0 {
		opts.Engine.P = 4
	}
	if opts.Engine.Seed == 0 {
		opts.Engine.Seed = 7
	}
	s, err := New(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sameRows compares two distance maps exactly.
func sameRows(t *testing.T, got map[graph.ID][]int32, want map[graph.ID][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: got %d, want %d", len(got), len(want))
	}
	for v, wrow := range want {
		grow := got[v]
		if grow == nil {
			t.Fatalf("missing row for vertex %d", v)
		}
		for u := range wrow {
			if grow[u] != wrow[u] {
				t.Fatalf("d(%d,%d) = %d, want %d", v, u, grow[u], wrow[u])
			}
		}
	}
}

func snapshotRows(sn *Snapshot) map[graph.ID][]int32 {
	out := make(map[graph.ID][]int32, len(sn.Vertices()))
	for _, v := range sn.Vertices() {
		out[v] = sn.Row(v)
	}
	return out
}

// TestSessionConvergesToExact: a session left alone converges, and the final
// snapshot's rows equal the sequential oracle.
func TestSessionConvergesToExact(t *testing.T) {
	g := testGraph(120)
	ref := g.Clone()
	s := mustSession(t, g, Options{})
	sn, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Converged || sn.Exhausted {
		t.Fatalf("want converged, got converged=%t exhausted=%t", sn.Converged, sn.Exhausted)
	}
	sameRows(t, snapshotRows(sn), sssp.APSP(ref, 0))
	if sn.NumVertices != ref.NumVertices() || sn.NumEdges != ref.NumEdges() {
		t.Fatalf("snapshot graph shape %d/%d, want %d/%d",
			sn.NumVertices, sn.NumEdges, ref.NumVertices(), ref.NumEdges())
	}
}

// TestSessionAnytimeProperty: the snapshot a budget-limited session stops on
// equals the state of a plain engine stopped at exactly that step — a
// mid-run query observes precisely the paper's anytime estimate, nothing
// stale, nothing torn.
func TestSessionAnytimeProperty(t *testing.T) {
	for _, budget := range []int{1, 2, 4} {
		g := testGraph(150)
		ref := g.Clone()
		s := mustSession(t, g, Options{StepBudget: budget})
		sn, err := s.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sn.Step > budget {
			t.Fatalf("budget %d exceeded: stopped at step %d", budget, sn.Step)
		}
		e, err := core.New(ref, core.Options{P: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < sn.Step; i++ {
			e.Step()
		}
		sameRows(t, snapshotRows(sn), e.Distances())
	}
}

// TestSessionPauseResume: a paused session publishes nothing new; Resume
// lets it run to convergence.
func TestSessionPauseResume(t *testing.T) {
	s := mustSession(t, testGraph(80), Options{StartPaused: true})
	sn := s.Snapshot()
	if sn.Epoch != 1 || sn.Step != 0 {
		t.Fatalf("initial snapshot epoch=%d step=%d, want 1/0", sn.Epoch, sn.Step)
	}
	time.Sleep(20 * time.Millisecond)
	if sn2 := s.Snapshot(); sn2.Epoch != 1 {
		t.Fatalf("paused session advanced to epoch %d", sn2.Epoch)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionDeadline: a paused session never steps, so its deadline fires
// and marks it Exhausted at step 0.
func TestSessionDeadline(t *testing.T) {
	s := mustSession(t, testGraph(60), Options{StartPaused: true, Deadline: 10 * time.Millisecond})
	sn, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Exhausted || sn.Converged || sn.Step != 0 {
		t.Fatalf("want exhausted at step 0, got converged=%t exhausted=%t step=%d",
			sn.Converged, sn.Exhausted, sn.Step)
	}
}

// TestSessionMutationsConvergeToExact: additions and deletions
// applied through the queue land the analysis on the mutated graph's exact
// distances, and each mutation is visible in the snapshot as soon as the
// Apply call returns.
func TestSessionMutationsConvergeToExact(t *testing.T) {
	g := testGraph(100)
	mirror := g.Clone()
	s := mustSession(t, g, Options{})

	adds := workload.RandomEdgeAdditions(mirror, 12, 4, 3)
	if err := apply(s, core.EdgeAdd(adds...)); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	for _, ed := range adds {
		mirror.AddEdge(ed.U, ed.V, ed.W)
	}
	if sn.NumEdges != mirror.NumEdges() {
		t.Fatalf("post-addition snapshot has %d edges, want %d", sn.NumEdges, mirror.NumEdges())
	}

	dels := workload.RandomEdgeDeletions(mirror, 6, 4)
	if err := apply(s, core.EdgeDelete(dels...)); err != nil {
		t.Fatal(err)
	}
	for _, d := range dels {
		mirror.RemoveEdge(d[0], d[1])
	}
	if sn := s.Snapshot(); sn.NumEdges != mirror.NumEdges() {
		t.Fatalf("post-deletion snapshot has %d edges, want %d", sn.NumEdges, mirror.NumEdges())
	}

	batch := &core.VertexBatch{
		Count:    3,
		Internal: []core.BatchEdge{{A: 0, B: 1, W: 2}, {A: 1, B: 2, W: 1}},
		External: []core.AttachEdge{{New: 0, To: 5, W: 1}, {New: 2, To: 9, W: 3}},
	}
	ids, err := addVertices(s, batch, &core.RoundRobinPS{})
	if err != nil {
		t.Fatal(err)
	}
	first := mirror.AddVertices(batch.Count)
	if ids[0] != first {
		t.Fatalf("engine assigned ids from %d, mirror from %d", ids[0], first)
	}
	for _, ed := range batch.Internal {
		mirror.AddEdge(ids[ed.A], ids[ed.B], ed.W)
	}
	for _, ed := range batch.External {
		mirror.AddEdge(ids[ed.New], ed.To, ed.W)
	}

	final, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, snapshotRows(final), sssp.APSP(mirror, 0))
}

// TestSessionMutationValidation: structurally invalid inputs are rejected at
// enqueue time without disturbing the analysis.
func TestSessionMutationValidation(t *testing.T) {
	s := mustSession(t, testGraph(40), Options{StartPaused: true})
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 1, V: 1, W: 1})); err == nil {
		t.Fatal("self-loop addition accepted")
	}
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 1, V: 2, W: 0})); err == nil {
		t.Fatal("zero-weight addition accepted")
	}
	if err := apply(s, core.WeightSet(0, 1, 0)); err == nil {
		t.Fatal("zero weight accepted")
	}
	bad := &core.VertexBatch{Count: 1, Internal: []core.BatchEdge{{A: 0, B: 5, W: 1}}}
	if _, err := addVertices(s, bad, &core.RoundRobinPS{}); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if sn := s.Snapshot(); sn.Epoch != 1 {
		t.Fatalf("rejected mutations advanced the session to epoch %d", sn.Epoch)
	}
}

// TestSessionClosed: after Close every blocking operation fails fast with
// ErrClosed, and Close is idempotent.
func TestSessionClosed(t *testing.T) {
	s := mustSession(t, testGraph(40), Options{StartPaused: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(); err != ErrClosed {
		t.Fatalf("Resume after Close: %v, want ErrClosed", err)
	}
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 0, V: 30, W: 1})); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v, want ErrClosed", err)
	}
	if _, err := s.WaitFor(context.Background(), func(sn *Snapshot) bool { return sn.Epoch > 100 }); err != ErrClosed {
		t.Fatalf("WaitFor after Close: %v, want ErrClosed", err)
	}
	if sn := s.Snapshot(); sn == nil {
		t.Fatal("Snapshot after Close returned nil")
	}
}

// spanLog is a goroutine-safe core.Tracer keeping every span it receives.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (l *spanLog) Span(sp obs.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

// named returns the received spans called name, in arrival order.
func (l *spanLog) named(name string) []obs.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Span
	for _, sp := range l.spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestSessionTracerEvents: the session's timeline reaches the engine tracer
// as spans — one session.publish per epoch carrying the epoch's state, one
// session.apply per ingest drain — beside the engine's own engine.step and
// engine.apply spans.
func TestSessionTracerEvents(t *testing.T) {
	log := &spanLog{}
	g := testGraph(60)
	s := mustSession(t, g, Options{Engine: core.Options{P: 4, Seed: 7, Tracer: log}})
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 0, V: 55, W: 2})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	pubs := log.named("session.publish")
	if last := s.Snapshot().Epoch; len(pubs) != last {
		t.Fatalf("%d session.publish spans for %d epochs", len(pubs), last)
	}
	for i, sp := range pubs {
		if sp.Component != "session" || !strings.HasPrefix(sp.Detail, fmt.Sprintf("epoch %d at step ", i+1)) {
			t.Fatalf("publish span %d: %+v", i, sp)
		}
	}
	if d := pubs[len(pubs)-1].Detail; !strings.Contains(d, "converged=true") || !strings.Contains(d, "60 vertices") {
		t.Fatalf("final publish detail %q", d)
	}
	if ap := log.named("session.apply"); len(ap) != 1 || ap[0].Detail != "ingest 1 ops as 1 units" {
		t.Fatalf("session.apply spans %+v", ap)
	}
	if ea := log.named("engine.apply"); len(ea) != 1 || ea[0].Detail != "edge-add: 1 edges" {
		t.Fatalf("engine.apply spans %+v", ea)
	}
	steps := log.named("engine.step")
	if len(steps) == 0 || !strings.HasSuffix(steps[len(steps)-1].Detail, "converged=true") {
		t.Fatalf("engine.step spans %+v", steps)
	}
}

// TestSessionKindsRender: the session's spans render through the -trace
// writer as span lines with their detail.
func TestSessionKindsRender(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	s := mustSession(t, testGraph(40), Options{Engine: core.Options{P: 4, Seed: 7, Tracer: j}})
	if err := apply(s, core.EdgeAdd(graph.EdgeTriple{U: 0, V: 35, W: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var line struct {
			Type, Component, Name, Detail string
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Type != "span" {
			t.Fatalf("unexpected record type %q", line.Type)
		}
		if line.Component == "session" && line.Detail != "" {
			seen[line.Name] = true
		}
	}
	for _, name := range []string{"session.publish", "session.apply"} {
		if !seen[name] {
			t.Fatalf("trace has no %s span line with detail:\n%s", name, buf.String())
		}
	}
}

// TestSessionReplay: replaying a change log through the session's queue
// reaches the same converged distances as the engine-driven replay path.
func TestSessionReplay(t *testing.T) {
	logText := `
@1
addedge 0 37 2
addvertex hub
attach hub 3 1
attach hub 12 1
attach hub 29 1
@3
deledge 0 1
setweight 0 37 1
@5
delvertex 17
`
	parse := func() *changelog.Log {
		lg, err := changelog.Parse(strings.NewReader(logText))
		if err != nil {
			t.Fatal(err)
		}
		return lg
	}

	// Reference: the established engine-driven replay.
	eg := testGraph(90)
	e, err := core.New(eg, core.Options{P: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := changelog.NewReplayer(parse(), nil).ReplayAll(e); err != nil {
		t.Fatal(err)
	}
	want := e.Distances()

	// Session-driven replay of the same log over the same graph.
	s := mustSession(t, testGraph(90), Options{})
	if err := s.Replay(context.Background(), changelog.NewReplayer(parse(), nil)); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, snapshotRows(sn), want)
}

// TestSessionIncrementalInject: a workload schedule drains through the
// session queue chunk by chunk and the analysis absorbs every vertex.
func TestSessionIncrementalInject(t *testing.T) {
	add, err := workload.ExtractAddition(80, 20, 5, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := add.Base.NumVertices()
	s := mustSession(t, add.Base, Options{})
	inc := workload.NewIncremental(add.Batch, 4)
	if err := inc.InjectAll(s, &core.RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := before + add.Batch.Count; sn.NumVertices != want {
		t.Fatalf("final snapshot has %d vertices, want %d", sn.NumVertices, want)
	}
}
