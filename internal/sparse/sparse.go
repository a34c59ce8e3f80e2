// Package sparse provides the allocation-free change-tracking structures of
// the engine's incremental data path: a generation-stamped sparse set over
// small integer keys (vertex IDs), a bitmap changed-column set, and a
// growable bitset.
//
// The recombination step must cost time proportional to actual change
// volume, and in steady state that volume is tiny — a handful of dirty rows
// with a handful of changed columns each. Tracking that through Go maps
// (hash per insert, iterate-and-sort per flatten, one allocation per set)
// made the bookkeeping dominate the step. Every structure here instead
// clears cheaply (a generation stamp, or a bitmap clear), reuses its backing
// arrays across steps, and flattens deterministically (sorted) without
// allocating.
package sparse

import (
	"math/bits"
	"slices"
)

// Set is a generation-stamped sparse set over non-negative int32 keys.
// Add, Has, Remove and Clear are O(1); the zero value is ready to use and
// backing arrays grow on demand and are reused across Clears.
type Set struct {
	dense []int32  // members in insertion order (sorted after Sorted)
	pos   []int32  // pos[v] = index of v in dense, valid iff stamp[v] == gen
	stamp []uint32 // stamp[v] == gen marks membership
	gen   uint32   // current generation; 0 is never a live generation
}

// grow widens the stamp/pos arrays to cover key v.
func (s *Set) grow(v int32) {
	n := int(v) + 1
	if n < 2*len(s.stamp) {
		n = 2 * len(s.stamp)
	}
	stamp := make([]uint32, n)
	copy(stamp, s.stamp)
	s.stamp = stamp
	pos := make([]int32, n)
	copy(pos, s.pos)
	s.pos = pos
}

// Add inserts v, reporting whether it was newly added.
func (s *Set) Add(v int32) bool {
	if int(v) >= len(s.stamp) {
		s.grow(v)
	}
	if s.gen == 0 {
		s.gen = 1
	}
	if s.stamp[v] == s.gen {
		return false
	}
	s.stamp[v] = s.gen
	s.pos[v] = int32(len(s.dense))
	s.dense = append(s.dense, v)
	return true
}

// Has reports membership of v.
func (s *Set) Has(v int32) bool {
	return int(v) < len(s.stamp) && s.gen != 0 && s.stamp[v] == s.gen
}

// Remove deletes v (swap-with-last), reporting whether it was a member.
func (s *Set) Remove(v int32) bool {
	if !s.Has(v) {
		return false
	}
	i := s.pos[v]
	last := s.dense[len(s.dense)-1]
	s.dense[i] = last
	s.pos[last] = i
	s.dense = s.dense[:len(s.dense)-1]
	s.stamp[v] = 0
	return true
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.dense) }

// Clear empties the set in O(1) by bumping the generation. The slice last
// returned by Sorted (or Dense) is invalidated.
func (s *Set) Clear() {
	s.dense = s.dense[:0]
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could collide, so reset them
		clear(s.stamp)
		s.gen = 1
	}
}

// Dense returns the members in insertion order. The slice is owned by the
// set: valid only until the next Add/Remove/Clear, and Sorted reorders it.
func (s *Set) Dense() []int32 { return s.dense }

// Sorted sorts the members in place (ascending) and returns them, fixing the
// internal positions so Remove keeps working. Same ownership rules as Dense.
func (s *Set) Sorted() []int32 {
	slices.Sort(s.dense)
	for i, v := range s.dense {
		s.pos[v] = int32(i)
	}
	return s.dense
}

// Cols is a changed-column set over one DV row: a width-bit bitmap plus its
// unique count. Per-row change sets need exact unique counts (the sparse/full
// threshold must not trip on duplicate notes) and cheap repeated notes (the
// relax worklist notes the same columns of a row many times in one step); a
// bitmap gives both with width/8 bytes per tracked row, and flattens in
// ascending order straight into the caller's arena. The zero value is ready
// to use; the bitmap grows on demand and is reused across Resets.
type Cols struct {
	words []uint64
	n     int // number of set bits
}

// Note adds cols and reports whether the unique column count now exceeds
// max — the signal to abandon sparse tracking and go full-row. Duplicates,
// within cols or with earlier notes, count once.
func (c *Cols) Note(cols []int32, max int) (overflow bool) {
	for _, v := range cols {
		w := int(v >> 6)
		if w >= len(c.words) {
			c.grow(w)
		}
		bit := uint64(1) << uint(v&63)
		if c.words[w]&bit == 0 {
			c.words[w] |= bit
			c.n++
		}
	}
	return c.n > max
}

func (c *Cols) grow(w int) {
	n := w + 1
	if n < 2*len(c.words) {
		n = 2 * len(c.words)
	}
	words := make([]uint64, n)
	copy(words, c.words)
	c.words = words
}

// AppendSorted appends the set's columns to dst in ascending order and
// returns the extended slice.
func (c *Cols) AppendSorted(dst []int32) []int32 {
	if c.n == 0 {
		return dst
	}
	for w, word := range c.words {
		for word != 0 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// Len returns the number of unique columns.
func (c *Cols) Len() int { return c.n }

// Reset empties the set, keeping its bitmap for reuse.
func (c *Cols) Reset() {
	if c.n > 0 {
		clear(c.words)
		c.n = 0
	}
}

// Release empties the set and frees its bitmap (used when a row goes full:
// full rows track no columns, so the bitmap would only pin width/8 bytes).
func (c *Cols) Release() {
	c.words = nil
	c.n = 0
}
