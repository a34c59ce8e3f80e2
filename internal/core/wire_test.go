package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/runtime"
)

func TestWireCodecRoundTrip(t *testing.T) {
	msg := &boundaryMsg{}
	msg.add(7, []int32{0, 5, dv.Inf, 3}, nil, nil)
	msg.add(12, nil, []int32{1, 3}, []int32{9, dv.Inf})
	msg.add(0, []int32{0}, nil, nil)
	frame, err := (WireCodec{}).Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := (WireCodec{}).Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := back.(*boundaryMsg)
	if !reflect.DeepEqual(got.ids, msg.ids) {
		t.Fatalf("ids %v vs %v", got.ids, msg.ids)
	}
	for i := range msg.ids {
		if !reflect.DeepEqual(got.full[i], msg.full[i]) ||
			!reflect.DeepEqual(got.cols[i], msg.cols[i]) ||
			!reflect.DeepEqual(got.vals[i], msg.vals[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestWireCodecRejectsBadInput(t *testing.T) {
	if _, err := (WireCodec{}).Encode("not a message"); err == nil {
		t.Fatal("encoded a string")
	}
	for _, bad := range [][]byte{
		{},
		{1, 0, 0},                   // truncated count
		{1, 0, 0, 0, 5, 0, 0, 0},    // row without kind
		{1, 0, 0, 0, 5, 0, 0, 0, 9}, // unknown kind
	} {
		if _, err := (WireCodec{}).Decode(bad); err == nil {
			t.Fatalf("decoded garbage %v", bad)
		}
	}
	// Trailing bytes rejected.
	msg := &boundaryMsg{}
	msg.add(1, []int32{0, 2}, nil, nil)
	frame, _ := (WireCodec{}).Encode(msg)
	if _, err := (WireCodec{}).Decode(append(frame, 0)); err == nil {
		t.Fatal("decoded frame with trailing bytes")
	}
}

// TestPropertyWireCodec round-trips random messages.
func TestPropertyWireCodec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		msg := &boundaryMsg{}
		for i := 0; i < rng.Intn(10); i++ {
			id := graph.ID(rng.Intn(1000))
			if rng.Intn(2) == 0 {
				row := make([]int32, rng.Intn(50))
				for j := range row {
					row[j] = rng.Int31()
				}
				msg.add(id, row, nil, nil)
			} else {
				k := rng.Intn(20)
				cols := make([]int32, k)
				vals := make([]int32, k)
				for j := 0; j < k; j++ {
					cols[j] = rng.Int31n(1000)
					vals[j] = rng.Int31()
				}
				msg.add(id, nil, cols, vals)
			}
		}
		frame, err := (WireCodec{}).Encode(msg)
		if err != nil {
			return false
		}
		back, err := (WireCodec{}).Decode(frame)
		if err != nil {
			return false
		}
		got := back.(*boundaryMsg)
		if len(got.ids) != len(msg.ids) {
			return false
		}
		for i := range msg.ids {
			if got.ids[i] != msg.ids[i] {
				return false
			}
			if (msg.full[i] == nil) != (got.full[i] == nil) {
				return false
			}
			for j := range msg.full[i] {
				if got.full[i][j] != msg.full[i][j] {
					return false
				}
			}
			for j := range msg.cols[i] {
				if got.cols[i][j] != msg.cols[i][j] || got.vals[i][j] != msg.vals[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestWireModeMatchesInMemory(t *testing.T) {
	g := gen.BarabasiAlbert(150, 2, 91, gen.Config{MaxWeight: 3})

	mem := mustEngine(t, g.Clone(), 6)
	memSteps := mustRun(t, mem)

	wired, err := New(g.Clone(), Options{P: 6, Seed: 7, Runtime: runtime.WireTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer wired.Close()
	if wireSteps := mustRun(t, wired); wireSteps != memSteps {
		t.Fatalf("wire runtime took %d steps, sim took %d", wireSteps, memSteps)
	}
	checkExact(t, wired)

	// Distances identical across transports.
	a, b := mem.Distances(), wired.Distances()
	for v, row := range a {
		for u := range row {
			if b[v][u] != row[u] {
				t.Fatalf("wire transport changed d(%d,%d)", v, u)
			}
		}
	}
	// And therefore scores, via the same reduction on both sides.
	ms, ws := mem.Scores(), wired.Scores()
	for v := range ms.Classic {
		if ms.Classic[v] != ws.Classic[v] || ms.Harmonic[v] != ws.Harmonic[v] || ms.Valid[v] != ws.Valid[v] {
			t.Fatalf("wire transport changed the score of vertex %d", v)
		}
	}
	// Wire mode counts real frame bytes.
	if wired.Stats().BytesSent == 0 {
		t.Fatal("wire mode recorded no bytes")
	}
}

func TestWireModeDynamics(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 92, gen.Config{MaxWeight: 2})
	e, err := New(g, Options{P: 4, Seed: 7, Runtime: runtime.WireTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	batch := &VertexBatch{
		Count:    3,
		Internal: []BatchEdge{{A: 0, B: 1, W: 1}, {A: 1, B: 2, W: 2}},
		External: []AttachEdge{{New: 0, To: 9, W: 1}},
	}
	if _, err := e.applyVertexAdditions(batch, &RoundRobinPS{}); err != nil {
		t.Fatal(err)
	}
	if err := e.applyEdgeDeletions([][2]graph.ID{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	checkExact(t, e)
}

func TestCloseWithoutWireIsNoOp(t *testing.T) {
	e := mustEngine(t, gen.Path(10), 2)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
