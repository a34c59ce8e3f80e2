package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aacc/internal/gen"
	"aacc/internal/graph"
)

func TestPathOnPathGraph(t *testing.T) {
	e := mustEngine(t, gen.Path(8), 4)
	mustRun(t, e)
	p, err := e.Path(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 8 {
		t.Fatalf("path %v", p)
	}
	for i, v := range p {
		if v != graph.ID(i) {
			t.Fatalf("path %v", p)
		}
	}
	if l, err := e.PathLength(p); err != nil || l != 7 {
		t.Fatalf("length %d, %v", l, err)
	}
}

func TestPathSelf(t *testing.T) {
	e := mustEngine(t, gen.Path(5), 2)
	mustRun(t, e)
	p, err := e.Path(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0] != 3 {
		t.Fatalf("self path %v", p)
	}
}

func TestPathUnreachable(t *testing.T) {
	g := gen.Path(5)
	g.AddVertex()
	e := mustEngine(t, g, 2)
	mustRun(t, e)
	p, err := e.Path(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("path to unreachable vertex: %v", p)
	}
}

func TestPathRequiresConvergence(t *testing.T) {
	e := mustEngine(t, gen.BarabasiAlbert(80, 2, 7, gen.Config{}), 4)
	if _, err := e.Path(0, 50); err == nil {
		t.Fatal("path on unconverged engine accepted")
	}
}

func TestPathRejectsDeadEndpoints(t *testing.T) {
	e := mustEngine(t, gen.Path(6), 2)
	mustRun(t, e)
	if err := e.removeVertices([]graph.ID{5}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if _, err := e.Path(0, 5); err == nil {
		t.Fatal("dead endpoint accepted")
	}
}

func TestPathLengthRejectsNonEdges(t *testing.T) {
	e := mustEngine(t, gen.Path(6), 2)
	mustRun(t, e)
	if _, err := e.PathLength([]graph.ID{0, 2}); err == nil {
		t.Fatal("phantom hop accepted")
	}
}

// Property: every reconstructed path is a real path whose length equals the
// computed distance, on random weighted graphs and random pairs.
func TestPropertyPathsRealiseDistances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbert(40+rng.Intn(80), 2, rng.Int63(), gen.Config{MaxWeight: 5})
		e, err := New(g, Options{P: 2 + rng.Intn(8), Seed: rng.Int63()})
		if err != nil {
			return false
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		live := e.Graph().Vertices()
		for k := 0; k < 10; k++ {
			u := live[rng.Intn(len(live))]
			v := live[rng.Intn(len(live))]
			p, err := e.Path(u, v)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			l, err := e.PathLength(p)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if l != e.Distance(u, v) {
				t.Logf("seed %d: path length %d vs distance %d", seed, l, e.Distance(u, v))
				return false
			}
			if p[0] != u || p[len(p)-1] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}
