package dv

// The relaxation kernels of the recombination data path. ScanFull is the hot
// loop of the whole engine: every RC step relaxes every local row through
// every changed source row with
//
//	row[t] = min(row[t], d + srow[t])
//
// recording the changed columns. The tuned kernel reslices both rows to a
// common length so the compiler drops the per-element bounds checks, hoists
// the single Inf/overflow guard (st < Inf-d covers both), and unrolls by
// four to amortise loop overhead; scanFullRef is the pure-Go reference the
// property tests compare against, and BenchmarkScanFull tracks the spread.

// ScanFull relaxes row through every column of srow with base distance d,
// appending the changed column indices to changed and returning it. Entries
// of srow that would overflow past Inf are skipped; d must be < Inf and
// both rows must hold non-negative distances.
func ScanFull(row []int32, d int32, srow []int32, changed []int32) []int32 {
	n := len(srow)
	if len(row) < n {
		n = len(row)
	}
	if n == 0 || d >= Inf {
		return changed
	}
	row = row[:n]
	srow = srow[:n]
	limit := Inf - d // guards overflow and Inf entries with one compare
	t := 0
	for ; t+4 <= n; t += 4 {
		s0, s1, s2, s3 := srow[t], srow[t+1], srow[t+2], srow[t+3]
		if s0 < limit {
			if nd := d + s0; nd < row[t] {
				row[t] = nd
				changed = append(changed, int32(t))
			}
		}
		if s1 < limit {
			if nd := d + s1; nd < row[t+1] {
				row[t+1] = nd
				changed = append(changed, int32(t+1))
			}
		}
		if s2 < limit {
			if nd := d + s2; nd < row[t+2] {
				row[t+2] = nd
				changed = append(changed, int32(t+2))
			}
		}
		if s3 < limit {
			if nd := d + s3; nd < row[t+3] {
				row[t+3] = nd
				changed = append(changed, int32(t+3))
			}
		}
	}
	for ; t < n; t++ {
		if st := srow[t]; st < limit {
			if nd := d + st; nd < row[t] {
				row[t] = nd
				changed = append(changed, int32(t))
			}
		}
	}
	return changed
}

// scanFullRef is the straightforward reference implementation of ScanFull,
// kept for the equivalence property tests and the kernel benchmark.
func scanFullRef(row []int32, d int32, srow []int32, changed []int32) []int32 {
	limit := Inf - d
	n := len(srow)
	if n > len(row) {
		n = len(row)
	}
	for t := 0; t < n; t++ {
		st := srow[t]
		if st < limit {
			if nd := d + st; nd < row[t] {
				row[t] = nd
				changed = append(changed, int32(t))
			}
		}
	}
	return changed
}

// ScanCols relaxes row through the given columns of srow only — the delta
// path: a source that changed in k columns is scanned over those k columns.
func ScanCols(row []int32, d int32, srow []int32, cols []int32, changed []int32) []int32 {
	if d >= Inf {
		return changed
	}
	limit := Inf - d
	ns, nr := len(srow), len(row)
	for _, t := range cols {
		if int(t) >= ns || int(t) >= nr {
			continue
		}
		st := srow[t]
		if st < limit {
			if nd := d + st; nd < row[t] {
				row[t] = nd
				changed = append(changed, t)
			}
		}
	}
	return changed
}

// MergeMin folds src into dst entrywise (dst = min(dst, src)), appending the
// changed columns to changed. Used to reuse partial results when re-running
// local Dijkstra after deletions, failures or repartitioning.
func MergeMin(dst, src []int32, changed []int32) []int32 {
	n := len(src)
	if n > len(dst) {
		n = len(dst)
	}
	dst = dst[:n]
	src = src[:n]
	for t := 0; t < n; t++ {
		if src[t] < dst[t] {
			dst[t] = src[t]
			changed = append(changed, int32(t))
		}
	}
	return changed
}
