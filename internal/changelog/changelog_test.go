package changelog

import (
	"strings"
	"testing"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/sssp"
)

const sampleLog = `
# a small evolution: edges, a new community, a deletion
@1
addedge 0 15 2
addedge 3 12

@3
addvertex alice
addvertex bob
attach alice bob 1
attach alice 5 1
attach bob 9 2

@5
setweight 0 1 4
deledge 2 3
delvertex alice
`

func TestParse(t *testing.T) {
	log, err := Parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Batches) != 3 {
		t.Fatalf("got %d batches", len(log.Batches))
	}
	if log.Batches[0].Step != 1 || log.Batches[1].Step != 3 || log.Batches[2].Step != 5 {
		t.Fatalf("steps %v %v %v", log.Batches[0].Step, log.Batches[1].Step, log.Batches[2].Step)
	}
	if len(log.Batches[0].Events) != 2 || len(log.Batches[1].Events) != 5 || len(log.Batches[2].Events) != 3 {
		t.Fatalf("event counts wrong")
	}
	if ev := log.Batches[1].Events[2]; ev.Kind != Attach || ev.NameU != "alice" || ev.NameV != "bob" {
		t.Fatalf("attach parsed as %+v", ev)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"@x\n",
		"@-1\n",
		"frobnicate 1 2\n",
		"addedge 1\n",
		"addedge alice 2 1\n", // symbolic endpoint on a plain edge op
		"deledge 1 bob\n",
		"setweight 1 2\n", // missing weight
		"addedge 1 2 0\n", // weight < 1
		"addvertex\n",
		"delvertex\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestReplayMatchesOracle(t *testing.T) {
	log, err := Parse(strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	e, err := core.New(g, core.Options{P: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(log, nil)
	if err := rep.ReplayAll(e); err != nil {
		t.Fatal(err)
	}
	if !rep.Done() {
		t.Fatal("replay incomplete")
	}
	if _, ok := rep.Resolve("bob"); !ok {
		t.Fatal("bob unresolved")
	}
	if _, ok := rep.Resolve("alice"); !ok {
		t.Fatal("alice should resolve even after deletion")
	}
	// Converged state equals a fresh sequential analysis of the graph.
	want := sssp.APSP(e.Graph(), 0)
	got := e.Distances()
	for v, row := range want {
		for u := range row {
			if got[v][u] != row[u] {
				t.Fatalf("d(%d,%d) = %d, want %d", v, u, got[v][u], row[u])
			}
		}
	}
	// Effects landed: alice is gone, bob exists and is attached to 9.
	bob, _ := rep.Resolve("bob")
	if !e.Graph().Has(bob) {
		t.Fatal("bob missing from graph")
	}
	if w, ok := e.Graph().Weight(bob, 9); !ok || w != 2 {
		t.Fatalf("bob-9 edge: %d,%v", w, ok)
	}
	alice, _ := rep.Resolve("alice")
	if e.Graph().Has(alice) {
		t.Fatal("alice not deleted")
	}
	if w, _ := e.Graph().Weight(0, 1); w != 4 {
		t.Fatalf("setweight lost: %d", w)
	}
	if e.Graph().HasEdge(2, 3) {
		t.Fatal("deledge lost")
	}
}

// TestReplayEagerDeletions replays deletions due mid-analysis: they fold in
// where the analysis stands, without running an RC step, and the analysis
// still converges to the oracle.
func TestReplayEagerDeletions(t *testing.T) {
	log, err := Parse(strings.NewReader("@1\ndeledge 0 1\ndeledge 4 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.BarabasiAlbert(50, 2, 6, gen.Config{})
	e, err := core.New(g, core.Options{P: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(log, &core.CutEdgePS{Seed: 6})
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if e.Converged() {
		t.Fatal("converged after one step; the deletions would not land mid-analysis")
	}
	edges, steps := e.Graph().NumEdges(), e.StepCount()
	if err := rep.ApplyDue(e, e.StepCount()); err != nil {
		t.Fatal(err)
	}
	if !rep.Done() || e.Graph().NumEdges() != edges-2 {
		t.Fatalf("deletions not applied: done=%t, %d edges, want %d", rep.Done(), e.Graph().NumEdges(), edges-2)
	}
	if e.StepCount() != steps {
		t.Fatalf("replaying deletions ran %d RC steps", e.StepCount()-steps)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := sssp.APSP(e.Graph(), 0)
	got := e.Distances()
	for v, row := range want {
		for u := range row {
			if got[v][u] != row[u] {
				t.Fatalf("d(%d,%d) mismatch", v, u)
			}
		}
	}
}

func TestReplayRejectsUnknownName(t *testing.T) {
	log, err := Parse(strings.NewReader("@1\nattach ghost 3 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Path(10)
	e, err := core.New(g, core.Options{P: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewReplayer(log, nil).ReplayAll(e); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestReplayRejectsDuplicateName(t *testing.T) {
	log, err := Parse(strings.NewReader("@1\naddvertex x\naddvertex x\n"))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Path(10)
	e, _ := core.New(g, core.Options{P: 2, Seed: 1})
	if err := NewReplayer(log, nil).ReplayAll(e); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestAttachBetweenExistingIsEdgeAdd(t *testing.T) {
	log, err := Parse(strings.NewReader("@1\nattach 2 7 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Path(10)
	e, _ := core.New(g, core.Options{P: 2, Seed: 1})
	if err := NewReplayer(log, nil).ReplayAll(e); err != nil {
		t.Fatal(err)
	}
	if w, ok := e.Graph().Weight(2, 7); !ok || w != 3 {
		t.Fatalf("attach between existing vertices: %d,%v", w, ok)
	}
}
