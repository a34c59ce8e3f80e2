package runtime

import (
	"encoding/binary"
	"reflect"
	"testing"

	"aacc/internal/dv"
	"aacc/internal/graph"
)

// TestDecodeRowsRejectsNegativeID: a row payload naming a negative vertex
// is refused as a whole, so no such row reaches a coordinator snapshot.
func TestDecodeRowsRejectsNegativeID(t *testing.T) {
	for _, id := range []graph.ID{-1, -1 << 31} {
		into := map[graph.ID][]int32{}
		buf := EncodeRows(map[graph.ID][]int32{id: {0, 1}})
		if err := DecodeRows(buf, into); err == nil {
			t.Fatalf("DecodeRows accepted vertex id %d", id)
		}
		if _, ok := into[id]; ok {
			t.Fatalf("rejected payload still stored a row for %d", id)
		}
	}
}

// FuzzDecodeRows guards the row-report boundary: the payload arrives from
// another process (a worker's row report, a peer's all-gather share).
// DecodeRows must never panic, never hold more row storage than the payload
// carries, and every payload it accepts must survive an EncodeRows round
// trip unchanged.
func FuzzDecodeRows(f *testing.F) {
	for _, rows := range []map[graph.ID][]int32{
		{},
		{0: {0, 1, dv.Inf}},
		{3: {2, 1, 0, 5}, 7: nil, 1 << 30: {-5}},
		{-1: {0}},
	} {
		f.Add(EncodeRows(rows))
	}
	dup := EncodeRows(map[graph.ID][]int32{4: {1}})
	binary.LittleEndian.PutUint32(dup[0:4], 2)
	f.Add(append(dup, dup[4:]...))                                // one ID twice
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // a 4 G-entry row, no data
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		rows := map[graph.ID][]int32{}
		if err := DecodeRows(buf, rows); err != nil {
			return
		}
		held := 0
		for id, row := range rows {
			if id < 0 {
				t.Fatalf("accepted negative vertex id %d", id)
			}
			held += 4 * cap(row)
		}
		if held > len(buf) {
			t.Fatalf("holds %d bytes of rows from a %d-byte payload", held, len(buf))
		}
		again := map[graph.ID][]int32{}
		if err := DecodeRows(EncodeRows(rows), again); err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if len(again) != len(rows) {
			t.Fatalf("round trip changed the row count %d -> %d", len(rows), len(again))
		}
		for id, row := range rows {
			if len(row) == 0 && len(again[id]) == 0 {
				continue // nil and empty rows encode alike
			}
			if !reflect.DeepEqual(again[id], row) {
				t.Fatalf("row %d changed in the round trip: %v -> %v", id, row, again[id])
			}
		}
	})
}
