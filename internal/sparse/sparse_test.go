package sparse

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Has(3) {
		t.Fatal("zero set not empty")
	}
	if !s.Add(5) || !s.Add(2) || !s.Add(9) {
		t.Fatal("fresh adds must report true")
	}
	if s.Add(5) {
		t.Fatal("duplicate add must report false")
	}
	if s.Len() != 3 || !s.Has(5) || !s.Has(2) || !s.Has(9) || s.Has(4) {
		t.Fatalf("membership wrong: %v", s.Dense())
	}
	if got := s.Sorted(); !slices.Equal(got, []int32{2, 5, 9}) {
		t.Fatalf("Sorted = %v", got)
	}
	if !s.Remove(5) || s.Remove(5) || s.Has(5) || s.Len() != 2 {
		t.Fatal("remove after Sorted broken")
	}
	s.Clear()
	if s.Len() != 0 || s.Has(2) || s.Has(9) {
		t.Fatal("clear broken")
	}
	if !s.Add(2) {
		t.Fatal("re-add after clear must report true")
	}
}

func TestSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Set
	ref := make(map[int32]bool)
	for op := 0; op < 20000; op++ {
		v := int32(rng.Intn(300))
		switch rng.Intn(5) {
		case 0:
			if s.Remove(v) != ref[v] {
				t.Fatalf("op %d: Remove(%d) disagrees", op, v)
			}
			delete(ref, v)
		case 1:
			s.Clear()
			clear(ref)
		case 2:
			_ = s.Sorted() // must not corrupt the set
		default:
			if s.Add(v) == ref[v] {
				t.Fatalf("op %d: Add(%d) disagrees", op, v)
			}
			ref[v] = true
		}
		if s.Len() != len(ref) {
			t.Fatalf("op %d: len %d != %d", op, s.Len(), len(ref))
		}
	}
	want := make([]int32, 0, len(ref))
	for v := range ref {
		want = append(want, v)
	}
	slices.Sort(want)
	if !slices.Equal(s.Sorted(), want) {
		t.Fatalf("final members %v != %v", s.Sorted(), want)
	}
}

func TestSetGenerationWrap(t *testing.T) {
	var s Set
	s.Add(1)
	s.gen = ^uint32(0) // force the wrap on the next Clear
	s.stamp[1] = s.gen
	s.Clear()
	if s.Has(1) {
		t.Fatal("stale member survived generation wrap")
	}
	if !s.Add(1) || !s.Has(1) {
		t.Fatal("set unusable after generation wrap")
	}
}

func TestColsDedupAndThreshold(t *testing.T) {
	var c Cols
	// 60 notes of the same column must never overflow a threshold of 2:
	// the unique count is 1 (the duplicate-inflation regression).
	for i := 0; i < 60; i++ {
		if c.Note([]int32{7}, 2) {
			t.Fatalf("note %d: duplicate columns tripped the threshold", i)
		}
	}
	if got := c.AppendSorted(nil); !slices.Equal(got, []int32{7}) {
		t.Fatalf("Sorted = %v, want [7]", got)
	}
	if !c.Note([]int32{3, 9}, 2) {
		t.Fatal("3 unique must overflow max 2")
	}
}

func TestColsOverflowExact(t *testing.T) {
	var c Cols
	if c.Note([]int32{1, 2, 3}, 3) {
		t.Fatal("3 unique must not overflow max 3 (threshold is strict >)")
	}
	if !c.Note([]int32{4}, 3) {
		t.Fatal("4 unique must overflow max 3")
	}
	c.Release()
	if c.Note([]int32{5, 5, 5, 5, 5}, 1) {
		t.Fatal("1 unique must not overflow max 1 despite 5 entries")
	}
	if got := c.AppendSorted(nil); !slices.Equal(got, []int32{5}) {
		t.Fatalf("Sorted = %v, want [5]", got)
	}
}

func TestColsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c Cols // reused across trials: Reset must leave no stale bits
	for trial := 0; trial < 200; trial++ {
		c.Reset()
		ref := make(map[int32]bool)
		max := 1 + rng.Intn(20)
		over := false
		for n := 0; n < 30 && !over; n++ {
			batch := make([]int32, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = int32(rng.Intn(40 + 8*trial))
				ref[batch[i]] = true
			}
			over = c.Note(batch, max)
			if want := len(ref) > max; over != want {
				t.Fatalf("trial %d: overflow=%v with %d unique, max %d", trial, over, len(ref), max)
			}
		}
		if over {
			c.Release() // as a row going full does; the next trial regrows it
			continue
		}
		want := make([]int32, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		slices.Sort(want)
		prefix := []int32{-1}
		if got := c.AppendSorted(prefix); !slices.Equal(got[1:], want) || got[0] != -1 || c.Len() != len(want) {
			t.Fatalf("trial %d: %v (len %d) != %v", trial, got, c.Len(), want)
		}
	}
}

func BenchmarkSetAddClear(b *testing.B) {
	var s Set
	for i := 0; i < b.N; i++ {
		for v := int32(0); v < 64; v++ {
			s.Add(v * 13 % 512)
		}
		_ = s.Sorted()
		s.Clear()
	}
}

func BenchmarkMapAddClear(b *testing.B) {
	// The structure Set replaces, for the DESIGN.md numbers.
	m := make(map[int32]bool, 64)
	for i := 0; i < b.N; i++ {
		for v := int32(0); v < 64; v++ {
			m[v*13%512] = true
		}
		ids := make([]int32, 0, len(m))
		for v := range m {
			ids = append(ids, v)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		clear(m)
	}
}
