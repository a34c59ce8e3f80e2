package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestRoundTripDelivery(t *testing.T) {
	mesh, err := NewTCPLoopback(4)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	frames := make([][][]byte, 4)
	for i := range frames {
		frames[i] = make([][]byte, 4)
	}
	frames[0][2] = []byte("zero to two")
	frames[2][0] = []byte("two to zero")
	frames[3][1] = []byte{0, 1, 2, 3, 255}
	in, err := mesh.RoundTrip(frames)
	if err != nil {
		t.Fatal(err)
	}
	if string(in[2][0]) != "zero to two" {
		t.Fatalf("in[2][0] = %q", in[2][0])
	}
	if string(in[0][2]) != "two to zero" {
		t.Fatalf("in[0][2] = %q", in[0][2])
	}
	if !bytes.Equal(in[1][3], []byte{0, 1, 2, 3, 255}) {
		t.Fatalf("binary frame corrupted: %v", in[1][3])
	}
	if in[1][0] != nil || in[3][2] != nil {
		t.Fatal("phantom frames delivered")
	}
}

func TestRoundTripEmptyRound(t *testing.T) {
	mesh, err := NewTCPLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	in, err := mesh.RoundTrip(make([][][]byte, 3))
	if err != nil {
		t.Fatal(err)
	}
	for dst := range in {
		for src := range in[dst] {
			if in[dst][src] != nil {
				t.Fatal("empty round delivered a frame")
			}
		}
	}
}

func TestRoundTripManyRounds(t *testing.T) {
	const n = 5
	mesh, err := NewTCPLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 20; round++ {
		frames := make([][][]byte, n)
		want := map[[2]int][]byte{}
		for src := 0; src < n; src++ {
			frames[src] = make([][]byte, n)
			for dst := 0; dst < n; dst++ {
				if src == dst || rng.Intn(2) == 0 {
					continue
				}
				f := make([]byte, 1+rng.Intn(5000))
				rng.Read(f)
				frames[src][dst] = f
				want[[2]int{dst, src}] = f
			}
		}
		in, err := mesh.RoundTrip(frames)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := 0
		for dst := range in {
			for src, f := range in[dst] {
				if f == nil {
					continue
				}
				got++
				if !bytes.Equal(f, want[[2]int{dst, src}]) {
					t.Fatalf("round %d: frame %d->%d corrupted", round, src, dst)
				}
			}
		}
		if got != len(want) {
			t.Fatalf("round %d: delivered %d of %d frames", round, got, len(want))
		}
	}
}

func TestRoundTripLargeFrame(t *testing.T) {
	mesh, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	big := make([]byte, 8<<20) // 8 MiB: far beyond socket buffers
	for i := range big {
		big[i] = byte(i * 31)
	}
	frames := [][][]byte{{nil, big}, {nil, nil}}
	in, err := mesh.RoundTrip(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in[1][0], big) {
		t.Fatal("large frame corrupted")
	}
}

func TestRoundTripShapeValidation(t *testing.T) {
	mesh, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	if _, err := mesh.RoundTrip(make([][][]byte, 5)); err == nil {
		t.Fatal("bad shape accepted")
	}
}

func TestNewRejectsZero(t *testing.T) {
	if _, err := NewTCPLoopback(0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestSingleNodeMesh(t *testing.T) {
	mesh, err := NewTCPLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	if _, err := mesh.RoundTrip(make([][][]byte, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	mesh, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRoundTrip times one full P=8 round through NewTCPLoopback: every
// processor sends one frame of the given size to every other.
func BenchmarkRoundTrip(b *testing.B) {
	const p = 8
	for _, size := range []int{4 << 10, 64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			mesh, err := NewTCPLoopback(p)
			if err != nil {
				b.Fatal(err)
			}
			defer mesh.Close()
			frame := make([]byte, size)
			frames := make([][][]byte, p)
			for src := range frames {
				frames[src] = make([][]byte, p)
				for dst := range frames[src] {
					if dst != src {
						frames[src][dst] = frame
					}
				}
			}
			b.SetBytes(int64(p * (p - 1) * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mesh.RoundTrip(frames); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
