package centrality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

func TestExactStar(t *testing.T) {
	// Star center: distance 1 to all n-1 leaves -> C = 1/(n-1).
	n := 9
	s := Exact(gen.Star(n), 1)
	if got, want := s.Classic[0], 1.0/float64(n-1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("center closeness %g, want %g", got, want)
	}
	// Leaf: 1 + 2*(n-2).
	want := 1.0 / float64(1+2*(n-2))
	if math.Abs(s.Classic[1]-want) > 1e-12 {
		t.Fatalf("leaf closeness %g, want %g", s.Classic[1], want)
	}
	if s.Classic[0] <= s.Classic[1] {
		t.Fatal("center not most central")
	}
}

func TestExactPathEndpointsLeastCentral(t *testing.T) {
	s := Exact(gen.Path(7), 1)
	if s.Classic[3] <= s.Classic[0] {
		t.Fatal("middle of path not most central")
	}
	if math.Abs(s.Classic[0]-s.Classic[6]) > 1e-12 {
		t.Fatal("symmetric endpoints differ")
	}
}

func TestClassicZeroWhenDisconnected(t *testing.T) {
	g := gen.Path(4)
	g.AddVertex() // isolated
	s := Exact(g, 1)
	if s.Classic[0] != 0 {
		t.Fatalf("classic closeness %g on disconnected graph, want 0", s.Classic[0])
	}
	if s.Harmonic[0] == 0 {
		t.Fatal("harmonic should still be positive")
	}
}

func TestFromDistancesPartial(t *testing.T) {
	// Estimates with one Inf: classic 0, harmonic counts the finite ones.
	dist := map[graph.ID][]int32{
		0: {0, 2, dv.Inf},
		1: {2, 0, 1},
		2: {dv.Inf, 1, 0},
	}
	live := []graph.ID{0, 1, 2}
	s := FromDistances(dist, live, 3)
	if s.Classic[0] != 0 {
		t.Fatalf("classic[0] = %g", s.Classic[0])
	}
	if math.Abs(s.Harmonic[0]-0.5) > 1e-12 {
		t.Fatalf("harmonic[0] = %g", s.Harmonic[0])
	}
	if math.Abs(s.Classic[1]-1.0/3) > 1e-12 {
		t.Fatalf("classic[1] = %g", s.Classic[1])
	}
}

func TestTopKOverlapIdentical(t *testing.T) {
	s := Exact(gen.BarabasiAlbert(100, 2, 3, gen.Config{}), 1)
	if o := TopKOverlap(s, s, 10); o != 1 {
		t.Fatalf("self overlap %g", o)
	}
}

func TestSpearmanPerfectAndInverse(t *testing.T) {
	valid := []bool{true, true, true, true}
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	if r := Spearman(valid, valid, a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation %g", r)
	}
	c := []float64{4, 3, 2, 1}
	if r := Spearman(valid, valid, a, c); math.Abs(r+1) > 1e-12 {
		t.Fatalf("inverse correlation %g", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	valid := []bool{true, true, true}
	a := []float64{1, 1, 2}
	b := []float64{5, 5, 9}
	if r := Spearman(valid, valid, a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("tied perfect correlation %g", r)
	}
}

func TestCompareDistancesExactIsZero(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 5, gen.Config{MaxWeight: 3})
	d := sssp.APSP(g, 1)
	de := CompareDistances(d, d)
	if de.MeanRelative != 0 || de.Unknown != 0 || de.Compared == 0 {
		t.Fatalf("self comparison: %+v", de)
	}
}

func TestCompareDistancesCountsUnknown(t *testing.T) {
	exact := map[graph.ID][]int32{0: {0, 1, 2}}
	est := map[graph.ID][]int32{0: {0, dv.Inf, 4}}
	de := CompareDistances(est, exact)
	if de.Unknown != 1 || de.Compared != 2 {
		t.Fatalf("%+v", de)
	}
	if math.Abs(de.MeanRelative-0.5) > 1e-12 { // (4-2)/2 over 2 compared
		t.Fatalf("mean relative %g", de.MeanRelative)
	}
}

// Property: on connected graphs, classic closeness ranking equals the
// (negated) ranking of distance sums, and harmonic is positive everywhere.
func TestPropertyClosenessConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.BarabasiAlbert(20+rng.Intn(80), 2, rng.Int63(), gen.Config{MaxWeight: 4})
		s := Exact(g, 1)
		dist := sssp.APSP(g, 1)
		for _, v := range g.Vertices() {
			if !s.Valid[v] || s.Harmonic[v] <= 0 || s.Classic[v] <= 0 {
				return false
			}
			var sum int64
			for _, u := range g.Vertices() {
				if u != v {
					sum += int64(dist[v][u])
				}
			}
			if math.Abs(s.Classic[v]-1/float64(sum)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
