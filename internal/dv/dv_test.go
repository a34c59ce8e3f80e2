package dv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSatAdd(t *testing.T) {
	cases := []struct{ a, b, want int32 }{
		{1, 2, 3},
		{Inf, 5, Inf},
		{5, Inf, Inf},
		{Inf, Inf, Inf},
		{Inf - 1, 1, Inf},
		{Inf - 2, 1, Inf - 1},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := SatAdd(c.a, c.b); got != c.want {
			t.Fatalf("SatAdd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAddRowInitialisation(t *testing.T) {
	s := NewStore(4)
	s.AddRow(2)
	row := s.Row(2)
	if len(row) != 4 {
		t.Fatalf("row width %d", len(row))
	}
	for i, v := range row {
		want := Inf
		if i == 2 {
			want = 0
		}
		if v != want {
			t.Fatalf("row[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestAddRowPanicsOnDuplicate(t *testing.T) {
	s := NewStore(2)
	s.AddRow(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddRow(0)
}

func TestRelaxAndGet(t *testing.T) {
	s := NewStore(3)
	s.AddRow(0)
	if !s.Relax(0, 1, 7) {
		t.Fatal("relax to 7 reported no change")
	}
	if s.Relax(0, 1, 9) {
		t.Fatal("relax to larger reported change")
	}
	if s.Get(0, 1) != 7 {
		t.Fatalf("Get %d", s.Get(0, 1))
	}
	if s.Get(1, 0) != Inf { // non-local row
		t.Fatal("non-local row not Inf")
	}
}

func TestGrow(t *testing.T) {
	s := NewStore(2)
	s.AddRow(0)
	s.Row(0)[1] = 5
	s.Grow(5)
	row := s.Row(0)
	if len(row) != 5 {
		t.Fatalf("width %d after grow", len(row))
	}
	if row[1] != 5 {
		t.Fatal("grow lost data")
	}
	for i := 2; i < 5; i++ {
		if row[i] != Inf {
			t.Fatalf("new column %d = %d", i, row[i])
		}
	}
	s.Grow(3) // shrink request is a no-op
	if s.Width() != 5 {
		t.Fatalf("width %d after no-op grow", s.Width())
	}
}

func TestGrowAmortisedCapacity(t *testing.T) {
	s := NewStore(4)
	s.AddRow(0)
	s.Grow(5)
	c1 := cap(s.Row(0))
	if c1 < 8 {
		t.Fatalf("expected doubled capacity, got %d", c1)
	}
	s.Grow(6) // should reuse capacity, not reallocate
	if cap(s.Row(0)) != c1 {
		t.Fatalf("capacity changed from %d to %d", c1, cap(s.Row(0)))
	}
}

func TestRemoveAndAdoptRow(t *testing.T) {
	s := NewStore(3)
	s.AddRow(1)
	s.Row(1)[0] = 9
	row := s.RemoveRow(1)
	if s.Row(1) != nil {
		t.Fatal("row still present")
	}
	d := NewStore(3)
	d.AdoptRow(1, row)
	if d.Get(1, 0) != 9 {
		t.Fatal("adopted row lost data")
	}
}

func TestAdoptRowGrowsNarrowRow(t *testing.T) {
	d := NewStore(5)
	d.AdoptRow(0, []int32{0, 1, 2})
	row := d.Row(0)
	if len(row) != 5 || row[3] != Inf || row[4] != Inf {
		t.Fatalf("adopted narrow row: %v", row)
	}
}

func TestClearColumn(t *testing.T) {
	s := NewStore(3)
	s.AddRow(0)
	s.AddRow(1)
	s.Row(0)[2] = 4
	s.Row(1)[2] = 5
	s.ClearColumn(2)
	if s.Get(0, 2) != Inf || s.Get(1, 2) != Inf {
		t.Fatal("column not cleared")
	}
}

func TestRowsAndLen(t *testing.T) {
	s := NewStore(4)
	s.AddRow(3)
	s.AddRow(1)
	if s.Len() != 2 {
		t.Fatalf("Len %d", s.Len())
	}
	seen := map[int32]bool{}
	for _, v := range s.Rows() {
		seen[v] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("Rows %v", seen)
	}
}

func TestCloneRowIndependent(t *testing.T) {
	s := NewStore(2)
	s.AddRow(0)
	c := s.CloneRow(0)
	c[1] = 42
	if s.Get(0, 1) == 42 {
		t.Fatal("CloneRow aliases store")
	}
	if s.CloneRow(1) != nil {
		t.Fatal("CloneRow of absent row not nil")
	}
}

// Property: Grow never loses or corrupts surviving entries regardless of the
// grow schedule.
func TestPropertyGrowPreservesEntries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(10)
		s := NewStore(w)
		s.AddRow(0)
		ref := make(map[int]int32)
		for i := 0; i < 50; i++ {
			if rng.Intn(3) == 0 {
				w += 1 + rng.Intn(10)
				s.Grow(w)
			} else {
				col := rng.Intn(s.Width())
				val := int32(rng.Intn(100))
				if s.Relax(0, int32(col), val) {
					ref[col] = val
				}
			}
			row := s.Row(0)
			if len(row) != s.Width() {
				return false
			}
			for col, val := range ref {
				if row[col] > val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStoreGrow measures the amortised-doubling column growth the
// paper's vertex-addition analysis charges O(x·n) for: 64 one-column grows
// of a 75-row store that starts 600 wide.
func BenchmarkStoreGrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewStore(600)
		for v := int32(0); v < 75; v++ {
			s.AddRow(v)
		}
		b.StartTimer()
		for w := 601; w <= 664; w++ {
			s.Grow(w)
		}
	}
}
