package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
)

func TestCheckpointRoundTripConverged(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 71, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.P() != 8 {
		t.Fatalf("restored P=%d", r.P())
	}
	mustRun(t, r)
	checkExact(t, r)
	// Ownership must survive exactly.
	for _, v := range g.Vertices() {
		if r.Owner(v) != e.Owner(v) {
			t.Fatalf("owner of %d changed: %d -> %d", v, e.Owner(v), r.Owner(v))
		}
	}
}

// TestCheckpointRestoreHonoursOptions pins that a restored engine is built by
// the same constructor as a fresh one: the worker pool and the metrics
// registry passed to LoadCheckpoint take effect.
func TestCheckpointRestoreHonoursOptions(t *testing.T) {
	e := mustEngine(t, gen.BarabasiAlbert(150, 2, 71, gen.Config{MaxWeight: 3}), 8)
	e.Step()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := LoadCheckpoint(&buf, Options{Workers: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers() != 3 {
		t.Fatalf("restored Workers() = %d, want 3", r.Workers())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"aacc_engine_workers 3", "aacc_engine_phase_seconds_bucket", "aacc_engine_steps_total", "aacc_transport_bytes_total"} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("restored engine's exposition is missing %q", fam)
		}
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"collect", "exchange", "install_relax", "strategies"} {
		if got := reg.Histogram("aacc_engine_phase_seconds", "", nil, obs.L("phase", phase)).Count(); got != 1 {
			t.Errorf("phase %q observed %d durations after one step, want 1", phase, got)
		}
	}
	if got := reg.Counter("aacc_engine_steps_total", "").Value(); got != 1 {
		t.Errorf("steps_total = %v after one step, want 1", got)
	}
	if reg.Counter("aacc_transport_bytes_total", "").Value() == 0 {
		t.Error("runtime traffic counters not wired on the restored engine")
	}
	mustRun(t, r)
	checkExact(t, r)
}

func TestCheckpointMidAnalysisPreservesPartialResults(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 72, gen.Config{MaxWeight: 2})
	e := mustEngine(t, g, 8)
	e.Step()
	e.Step()
	before := e.Distances()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := r.Distances()
	for v, row := range before {
		for u := range row {
			if after[v][u] != row[u] {
				t.Fatalf("restored d(%d,%d)=%d, checkpointed %d", v, u, after[v][u], row[u])
			}
		}
	}
	mustRun(t, r)
	checkExact(t, r)
}

func TestCheckpointThenDynamics(t *testing.T) {
	g := gen.BarabasiAlbert(120, 2, 73, gen.Config{})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := &VertexBatch{Count: 3, External: []AttachEdge{{New: 0, To: 5, W: 1}, {New: 2, To: 50, W: 2}}}
	if _, err := r.applyVertexAdditions(batch, &RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	if err := r.applyEdgeDeletions([][2]graph.ID{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, r)
	checkExact(t, r)
}

func TestCheckpointWithRemovedVertices(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 74, gen.Config{})
	e := mustEngine(t, g, 4)
	mustRun(t, e)
	if err := e.removeVertices([]graph.ID{7}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadCheckpoint(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph().Has(7) {
		t.Fatal("removed vertex resurrected")
	}
	mustRun(t, r)
	checkExact(t, r)
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not a checkpoint")), Options{}); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestEagerDeletionConverged(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 75, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	mustRun(t, e)
	edges := g.Edges()
	del := [][2]graph.ID{{edges[2].U, edges[2].V}, {edges[9].U, edges[9].V}}
	if err := e.applyEdgeDeletionsEager(del); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestEagerDeletionMidAnalysisNoBarrier(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 76, gen.Config{MaxWeight: 3})
	e := mustEngine(t, g, 8)
	e.Step() // partial state; eager mode must NOT converge first
	steps := e.StepCount()
	edges := e.Graph().Edges()
	if err := e.applyEdgeDeletionsEager([][2]graph.ID{{edges[4].U, edges[4].V}}); err != nil {
		t.Fatal(err)
	}
	if e.StepCount() != steps {
		t.Fatalf("eager deletion ran %d hidden RC steps", e.StepCount()-steps)
	}
	mustRun(t, e)
	checkExact(t, e)
}

// TestPropertyEagerDeletionInterleaved: eager deletions interleaved with
// additions at arbitrary analysis points, without any convergence barrier,
// still converge to the oracle.
func TestPropertyEagerDeletionInterleaved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbert(50+rng.Intn(80), 2, rng.Int63(), gen.Config{MaxWeight: 4})
		e, err := New(g, Options{P: 2 + rng.Intn(10), Seed: rng.Int63()})
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			for s := rng.Intn(3); s > 0 && !e.Converged(); s-- {
				e.Step()
			}
			if rng.Intn(2) == 0 {
				edges := e.Graph().Edges()
				if len(edges) == 0 {
					continue
				}
				var del [][2]graph.ID
				for k := 0; k < 1+rng.Intn(3); k++ {
					ed := edges[rng.Intn(len(edges))]
					del = append(del, [2]graph.ID{ed.U, ed.V})
				}
				if err := e.applyEdgeDeletionsEager(del); err != nil {
					return false
				}
			} else {
				u := graph.ID(rng.Intn(e.Graph().NumIDs()))
				v := graph.ID(rng.Intn(e.Graph().NumIDs()))
				if u != v {
					if err := e.applyEdgeAdditions([]graph.EdgeTriple{{U: u, V: v, W: int32(1 + rng.Intn(4))}}); err != nil {
						return false
					}
				}
			}
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		want := exactScores(e)
		got := e.Scores()
		for _, v := range e.Graph().Vertices() {
			if d := got.Harmonic[v] - want.Harmonic[v]; d > 1e-9 || d < -1e-9 {
				t.Logf("seed %d: harmonic mismatch at %d: %g vs %g", seed, v, got.Harmonic[v], want.Harmonic[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCheckpoint measures checkpoint serialisation and restore of a
// converged engine.
func BenchmarkCheckpoint(b *testing.B) {
	e, err := New(gen.BarabasiAlbert(600, 2, 42, gen.Config{}), Options{P: 8, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.Run("Write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := e.WriteCheckpoint(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("Load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LoadCheckpoint(bytes.NewReader(data), Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
