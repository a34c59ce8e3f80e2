package dv

import (
	"math/rand"
	"slices"
	"testing"
)

// randRow builds a distance row mixing small values, values near Inf (to
// exercise the overflow guard) and Inf itself.
func randRow(rng *rand.Rand, n int) []int32 {
	row := make([]int32, n)
	for i := range row {
		switch rng.Intn(4) {
		case 0:
			row[i] = Inf
		case 1:
			row[i] = Inf - int32(rng.Intn(10))
		default:
			row[i] = int32(rng.Intn(1000))
		}
	}
	return row
}

// TestScanFullMatchesReference: the tuned kernel and the reference must
// produce identical rows and identical changed-column lists (same order) on
// arbitrary inputs, including mismatched lengths and near-Inf bases.
func TestScanFullMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20160516))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(70)
		m := n
		if rng.Intn(3) == 0 {
			m = rng.Intn(70) // mismatched srow length
		}
		row := randRow(rng, n)
		srow := randRow(rng, m)
		var d int32
		switch rng.Intn(3) {
		case 0:
			d = Inf - int32(rng.Intn(5))
		default:
			d = int32(rng.Intn(2000))
		}
		rowRef := slices.Clone(row)
		gotCh := ScanFull(row, d, srow, nil)
		refCh := scanFullRef(rowRef, d, srow, nil)
		if !slices.Equal(row, rowRef) {
			t.Fatalf("trial %d: rows diverge (n=%d m=%d d=%d)", trial, n, m, d)
		}
		if !slices.Equal(gotCh, refCh) {
			t.Fatalf("trial %d: changed %v != %v", trial, gotCh, refCh)
		}
	}
}

func TestScanColsMatchesFullOnListedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		row := randRow(rng, n)
		srow := randRow(rng, n)
		d := int32(rng.Intn(2000))
		// cols includes out-of-range entries, which must be skipped.
		cols := make([]int32, rng.Intn(20))
		for i := range cols {
			cols[i] = int32(rng.Intn(n + 10))
		}
		rowFull := slices.Clone(row)
		ScanCols(row, d, srow, cols, nil)
		scanFullRef(rowFull, d, srow, nil)
		for _, c := range cols {
			if int(c) < n && row[c] != rowFull[c] {
				t.Fatalf("trial %d: col %d = %d, full scan got %d", trial, c, row[c], rowFull[c])
			}
		}
	}
}

func TestMergeMin(t *testing.T) {
	dst := []int32{5, 3, Inf, 7}
	src := []int32{4, 3, 2, 9, 1} // longer than dst: extra entries ignored
	ch := MergeMin(dst, src, nil)
	if !slices.Equal(dst, []int32{4, 3, 2, 7}) {
		t.Fatalf("dst = %v", dst)
	}
	if !slices.Equal(ch, []int32{0, 2}) {
		t.Fatalf("changed = %v", ch)
	}
	if got := MergeMin(dst, []int32{9}, nil); len(got) != 0 {
		t.Fatalf("no-op merge changed %v", got)
	}
}

// benchRows builds a realistic kernel workload: mostly-finite source against
// a row where a few percent of entries will improve.
func benchRows(n int) (row, srow []int32) {
	rng := rand.New(rand.NewSource(1))
	row = make([]int32, n)
	srow = make([]int32, n)
	for i := range row {
		row[i] = int32(100 + rng.Intn(900))
		srow[i] = int32(rng.Intn(1000))
	}
	return row, srow
}

func BenchmarkScanFull(b *testing.B) {
	row, srow := benchRows(4096)
	work := make([]int32, len(row))
	var changed []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, row)
		changed = ScanFull(work, 50, srow, changed[:0])
	}
}

func BenchmarkScanFullRef(b *testing.B) {
	row, srow := benchRows(4096)
	work := make([]int32, len(row))
	var changed []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, row)
		changed = scanFullRef(work, 50, srow, changed[:0])
	}
}

func TestStoreFreeList(t *testing.T) {
	s := NewStore(8)
	s.AddRow(3)
	row := s.Row(3)
	row[5] = 17
	s.DiscardRow(3)
	if s.Row(3) != nil || s.Len() != 0 {
		t.Fatal("DiscardRow left the row behind")
	}
	s.AddRow(4) // must reuse the recycled array, fully re-initialised
	got := s.Row(4)
	for i, v := range got {
		want := Inf
		if i == 4 {
			want = 0
		}
		if v != want {
			t.Fatalf("recycled row not re-initialised: got[%d]=%d", i, v)
		}
	}
	s.AddRow(1)
	s.Reset()
	if s.Len() != 0 || s.Width() != 8 {
		t.Fatalf("Reset: len=%d width=%d", s.Len(), s.Width())
	}
	s.AddRow(4)
	if s.Get(4, 4) != 0 || s.Get(4, 0) != Inf {
		t.Fatal("AddRow after Reset broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddRow must still panic")
		}
	}()
	s.AddRow(4)
}

func TestFillInf(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 100} {
		row := make([]int32, n)
		FillInf(row)
		for i, v := range row {
			if v != Inf {
				t.Fatalf("n=%d: row[%d]=%d", n, i, v)
			}
		}
	}
}
