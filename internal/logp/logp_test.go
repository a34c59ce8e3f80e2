package logp

import (
	"math"
	"testing"
)

func TestSendTimeMonotoneInSize(t *testing.T) {
	p := GigabitCluster(16)
	prev := 0.0
	for _, b := range []int{0, 64, 4096, 1 << 20, 10 << 20} {
		cur := p.SendTime(b)
		if cur < prev {
			t.Fatalf("SendTime not monotone at %d bytes: %g < %g", b, cur, prev)
		}
		prev = cur
	}
}

func TestSendTimeChunks(t *testing.T) {
	p := Params{Latency: 1e-3, Overhead: 1e-4, Gap: 0, P: 4, MaxMsg: 100}
	one := p.SendTime(100)
	three := p.SendTime(250)
	want := 3 * one
	if math.Abs(three-want) > 1e-12 {
		t.Fatalf("chunked cost %g, want %g", three, want)
	}
}

func TestSendTimeNegativeClamps(t *testing.T) {
	p := GigabitCluster(4)
	if p.SendTime(-5) != p.SendTime(0) {
		t.Fatal("negative size not clamped")
	}
}

func TestAllToAllSequentialSum(t *testing.T) {
	p := Params{Latency: 1, Overhead: 0, Gap: 0, P: 3, MaxMsg: 0}
	sizes := [][]int{
		{0, 10, 10},
		{10, 0, 0},
		{0, 0, 0},
	}
	// Three non-empty messages, each costing L=1 (gap 0), strictly serial.
	if got := p.AllToAllTime(sizes); math.Abs(got-3) > 1e-12 {
		t.Fatalf("all-to-all %g, want 3", got)
	}
}

func TestAllToAllIgnoresDiagonal(t *testing.T) {
	p := Params{Latency: 1, P: 2}
	sizes := [][]int{{5, 0}, {0, 7}}
	if got := p.AllToAllTime(sizes); got != 0 {
		t.Fatalf("self-messages priced: %g", got)
	}
}

func TestBroadcastLogRounds(t *testing.T) {
	p := Params{Latency: 1, Overhead: 0, Gap: 0, P: 16, MaxMsg: 0}
	if got := p.BroadcastTime(1); math.Abs(got-4) > 1e-12 { // log2(16)=4 rounds
		t.Fatalf("broadcast %g, want 4", got)
	}
	p.P = 1
	if p.BroadcastTime(100) != 0 {
		t.Fatal("single-processor broadcast should be free")
	}
}

func TestStaticAnalysisScaling(t *testing.T) {
	p := GigabitCluster(16)
	small := p.StaticAnalysis(1000, 50, 1, 1e-9)
	big := p.StaticAnalysis(4000, 200, 1, 1e-9)
	if big.Total <= small.Total {
		t.Fatal("estimate not increasing in n")
	}
	if small.IA <= 0 || small.RCComm <= 0 || small.RCLocal <= 0 {
		t.Fatalf("phase estimates must be positive: %+v", small)
	}
	if math.Abs(small.Total-(small.IA+small.RCComm+small.RCLocal)) > 1e-12 {
		t.Fatal("total != sum of phases")
	}
}

func TestStaticAnalysisThreadsHelp(t *testing.T) {
	p := GigabitCluster(16)
	t1 := p.StaticAnalysis(2000, 100, 1, 1e-9)
	t8 := p.StaticAnalysis(2000, 100, 8, 1e-9)
	if t8.IA >= t1.IA {
		t.Fatal("more threads did not reduce IA estimate")
	}
}

func TestVertexAdditionCostScaling(t *testing.T) {
	p := GigabitCluster(16)
	small := p.VertexAdditionCost(2000, 10, 20, 1e-9)
	big := p.VertexAdditionCost(2000, 100, 200, 1e-9)
	if big <= small {
		t.Fatal("vertex-addition cost not increasing in batch size")
	}
}
