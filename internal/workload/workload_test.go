package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
)

func TestExtractAdditionBasics(t *testing.T) {
	add, err := ExtractAddition(500, 60, 3, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if add.Base.NumVertices() < 250 {
		t.Fatalf("base shrunk to %d", add.Base.NumVertices())
	}
	if !add.Base.IsConnected() {
		t.Fatal("base disconnected")
	}
	if add.Batch.Count < 60 {
		t.Fatalf("batch %d below requested 60", add.Batch.Count)
	}
	if add.Communities < 1 {
		t.Fatal("no communities extracted")
	}
	if err := add.Batch.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ed := range add.Batch.External {
		if !add.Base.Has(ed.To) {
			t.Fatalf("external edge to missing base vertex %d", ed.To)
		}
	}
	// Community structure: internal edges should dominate attachments.
	if len(add.Batch.Internal) <= len(add.Batch.External) {
		t.Fatalf("batch not community-structured: %d internal, %d external",
			len(add.Batch.Internal), len(add.Batch.External))
	}
}

func TestExtractAdditionRejectsBadArgs(t *testing.T) {
	if _, err := ExtractAddition(4, 10, 1, gen.Config{}); err == nil {
		t.Fatal("expected error for tiny n")
	}
	if _, err := ExtractAddition(100, 0, 1, gen.Config{}); err == nil {
		t.Fatal("expected error for x=0")
	}
}

func TestExtractAdditionDeterministic(t *testing.T) {
	a, err := ExtractAddition(300, 40, 9, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtractAddition(300, 40, 9, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Batch.Count != b.Batch.Count ||
		len(a.Batch.Internal) != len(b.Batch.Internal) ||
		len(a.Batch.External) != len(b.Batch.External) {
		t.Fatal("same seed produced different workloads")
	}
	for i := range a.Batch.Internal {
		if a.Batch.Internal[i] != b.Batch.Internal[i] {
			t.Fatal("internal edges differ")
		}
	}
}

// applyAll injects all chunks of an incremental schedule into a plain graph
// and verifies the result matches applying the whole batch at once.
func TestIncrementalCoversWholeBatch(t *testing.T) {
	add, err := ExtractAddition(300, 50, 5, gen.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One-shot reference.
	ref := add.Base.Clone()
	refFirst := ref.AddVertices(add.Batch.Count)
	for _, ed := range add.Batch.Internal {
		ref.AddEdge(refFirst+graph.ID(ed.A), refFirst+graph.ID(ed.B), ed.W)
	}
	for _, ed := range add.Batch.External {
		ref.AddEdge(refFirst+graph.ID(ed.New), ed.To, ed.W)
	}
	// Incremental application.
	g := add.Base.Clone()
	inc := NewIncremental(add.Batch, 7)
	for inc.Remaining() > 0 {
		chunk := inc.Next()
		first := g.AddVertices(chunk.Count)
		ids := make([]graph.ID, chunk.Count)
		for i := range ids {
			ids[i] = first + graph.ID(i)
		}
		for _, ed := range chunk.Internal {
			g.AddEdge(ids[ed.A], ids[ed.B], ed.W)
		}
		for _, ed := range chunk.External {
			g.AddEdge(ids[ed.New], ed.To, ed.W)
		}
		inc.NoteIDs(ids)
	}
	if g.NumVertices() != ref.NumVertices() || g.NumEdges() != ref.NumEdges() {
		t.Fatalf("incremental %d/%d vs one-shot %d/%d vertices/edges",
			g.NumVertices(), g.NumEdges(), ref.NumVertices(), ref.NumEdges())
	}
	// Vertices are appended in batch order in both paths: edges must match.
	ge, re := g.Edges(), ref.Edges()
	for i := range ge {
		if ge[i] != re[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ge[i], re[i])
		}
	}
}

func TestIncrementalChunkSizes(t *testing.T) {
	batch := &core.VertexBatch{Count: 10}
	inc := NewIncremental(batch, 3)
	var sizes []int
	for inc.Remaining() > 0 {
		chunk := inc.Next()
		sizes = append(sizes, chunk.Count)
		ids := make([]graph.ID, chunk.Count)
		inc.NoteIDs(ids)
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("chunk sizes %v", sizes)
	}
	if inc.Next() != nil {
		t.Fatal("exhausted schedule returned a chunk")
	}
}

func TestRandomEdgeAdditionsAreNew(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 7, gen.Config{})
	adds := RandomEdgeAdditions(g, 50, 4, 7)
	if len(adds) != 50 {
		t.Fatalf("got %d additions", len(adds))
	}
	seen := map[[2]graph.ID]bool{}
	for _, ed := range adds {
		if g.HasEdge(ed.U, ed.V) {
			t.Fatalf("edge {%d,%d} already exists", ed.U, ed.V)
		}
		if ed.W < 1 || ed.W > 4 {
			t.Fatalf("weight %d out of range", ed.W)
		}
		k := [2]graph.ID{ed.U, ed.V}
		if seen[k] {
			t.Fatalf("duplicate addition %v", k)
		}
		seen[k] = true
	}
}

func TestRandomEdgeDeletionsKeepConnected(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 8, gen.Config{})
	dels := RandomEdgeDeletions(g, 30, 8)
	if len(dels) == 0 {
		t.Fatal("no deletions found")
	}
	work := g.Clone()
	for _, d := range dels {
		if !work.RemoveEdge(d[0], d[1]) {
			t.Fatalf("deletion %v not a live edge", d)
		}
	}
	if !work.IsConnected() {
		t.Fatal("joint deletion disconnected the graph")
	}
}

// Property: incremental schedules preserve the exact edge multiset for
// arbitrary chunk counts.
func TestPropertyIncrementalPreservesEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		add, err := ExtractAddition(120+rng.Intn(100), 20+rng.Intn(40), rng.Int63(), gen.Config{MaxWeight: 3})
		if err != nil {
			return false
		}
		chunks := 1 + rng.Intn(9)
		g := add.Base.Clone()
		inc := NewIncremental(add.Batch, chunks)
		for inc.Remaining() > 0 {
			chunk := inc.Next()
			first := g.AddVertices(chunk.Count)
			ids := make([]graph.ID, chunk.Count)
			for i := range ids {
				ids[i] = first + graph.ID(i)
			}
			for _, ed := range chunk.Internal {
				g.AddEdge(ids[ed.A], ids[ed.B], ed.W)
			}
			for _, ed := range chunk.External {
				g.AddEdge(ids[ed.New], ed.To, ed.W)
			}
			inc.NoteIDs(ids)
		}
		wantEdges := add.Base.NumEdges() + add.Batch.NumEdges()
		return g.NumEdges() == wantEdges &&
			g.NumVertices() == add.Base.NumVertices()+add.Batch.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnStreamIsValidAndSelfContained: a long churn stream emits only
// structurally valid mutations, never deletes or reweights a base-graph
// edge, and every deletion targets a pair the stream added earlier — so the
// stream stays applicable even when a consumer drops ops. Deterministic per
// seed.
func TestChurnStreamIsValidAndSelfContained(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 5, gen.Config{})
	base := make(map[[2]graph.ID]bool)
	for _, ed := range g.Edges() {
		u, v := ed.U, ed.V
		if u > v {
			u, v = v, u
		}
		base[[2]graph.ID{u, v}] = true
	}
	c := NewChurn(g, 4, 99)
	c2 := NewChurn(g, 4, 99)
	added := make(map[[2]graph.ID]bool)
	kinds := make(map[core.MutationKind]int)
	for i := 0; i < 2000; i++ {
		m := c.Next()
		m2 := c2.Next()
		if m.Kind != m2.Kind || len(m.Edges) != len(m2.Edges) || len(m.Pairs) != len(m2.Pairs) {
			t.Fatalf("op %d: same seed diverged: %v vs %v", i, m.Kind, m2.Kind)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("op %d invalid: %v", i, err)
		}
		kinds[m.Kind]++
		switch m.Kind {
		case core.MutEdgeAdd:
			for _, ed := range m.Edges {
				u, v := ed.U, ed.V
				if u > v {
					u, v = v, u
				}
				p := [2]graph.ID{u, v}
				if base[p] {
					t.Fatalf("op %d reweights base edge %v", i, p)
				}
				added[p] = true
			}
		case core.MutEdgeDelete:
			for _, p := range m.Pairs {
				if p[0] > p[1] {
					p[0], p[1] = p[1], p[0]
				}
				if base[p] {
					t.Fatalf("op %d deletes base edge %v", i, p)
				}
				if !added[p] {
					t.Fatalf("op %d deletes pair %v the stream never added", i, p)
				}
			}
		default:
			t.Fatalf("op %d: unexpected kind %v", i, m.Kind)
		}
	}
	if kinds[core.MutEdgeAdd] == 0 || kinds[core.MutEdgeDelete] == 0 {
		t.Fatalf("stream lacks variety: %v", kinds)
	}
}
