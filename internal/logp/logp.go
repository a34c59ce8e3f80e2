// Package logp implements the LogP/LogGP distributed-memory cost model the
// paper uses to analyse its algorithms (Culler et al.), plus the analytic
// phase-cost formulas from §IV. The simulated cluster prices every exchange
// through this model so experiments can report modelled parallel time for a
// 16-processor machine even when the host has fewer cores.
package logp

import "math"

// Params are the LogP parameters plus a LogGP-style per-byte gap for long
// messages and the paper's maximum message size M.
type Params struct {
	// Latency is the network transit latency L (seconds).
	Latency float64
	// Overhead is the per-message processor send/receive overhead o (seconds).
	Overhead float64
	// Gap is the per-byte gap G (seconds/byte) for long messages.
	Gap float64
	// P is the number of processors.
	P int
	// MaxMsg is the paper's maximum single-message size M in bytes;
	// larger payloads are sent as multiple messages. <=0 disables chunking.
	MaxMsg int
}

// GigabitCluster returns parameters modelled on the paper's testbed: 16
// processes over 1 Gb/s Ethernet (L ≈ 50 µs, o ≈ 5 µs, 8 ns/byte, M = 1 MiB).
func GigabitCluster(p int) Params {
	return Params{
		Latency:  50e-6,
		Overhead: 5e-6,
		Gap:      8e-9,
		P:        p,
		MaxMsg:   1 << 20,
	}
}

// SendTime returns the modelled end-to-end time to deliver one payload of
// the given size point-to-point: per chunk, 2o + L + bytes*G.
func (p Params) SendTime(bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	chunks := 1
	if p.MaxMsg > 0 && bytes > p.MaxMsg {
		chunks = (bytes + p.MaxMsg - 1) / p.MaxMsg
	}
	return float64(chunks)*(2*p.Overhead+p.Latency) + float64(bytes)*p.Gap
}

// AllToAllTime returns the modelled time for the paper's personalised
// all-to-all schedule in which only one message traverses the network at any
// given time: the P(P-1) sends are strictly sequential, so the total is the
// sum of the individual send times. sizes[i][j] is the payload from i to j
// (i==j ignored).
func (p Params) AllToAllTime(sizes [][]int) float64 {
	var t float64
	for i := range sizes {
		for j := range sizes[i] {
			if i == j || sizes[i][j] == 0 {
				continue
			}
			t += p.SendTime(sizes[i][j])
		}
	}
	return t
}

// BroadcastTime returns the modelled time for a binomial-tree broadcast of
// one payload to all P processors: ceil(log2 P) sequential rounds.
func (p Params) BroadcastTime(bytes int) float64 {
	if p.P <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p.P)))
	return rounds * p.SendTime(bytes)
}

// Analytic phase estimates from §IV of the paper. They are used by the
// LOGP-1 experiment to compare the model against measured behaviour.
// All counts are vertices/edges; compute is scaled by opTime, the modelled
// time per elementary operation (distance comparison / heap op).

// Estimate holds an analytic runtime estimate decomposed by phase.
type Estimate struct {
	IA      float64 // initial approximation (multithreaded Dijkstra)
	RCComm  float64 // recombination communication + boundary updates
	RCLocal float64 // recombination local Floyd–Warshall refreshes
	Total   float64
}

// StaticAnalysis evaluates the paper's static-analysis bound
//
//	IA:     O((n/P)·(n/P)·log(n/P) / T)
//	RC:     P steps of [all-to-all of boundary DVs + boundary update] plus
//	        local refresh O((n/P)³ · ... ) per step (Floyd–Warshall on the
//	        local subgraph), matching
//	        O(T(W)P + n³/P² + (n²/P)·log(n/P) + n²·b/P + n·b·P)
//
// for n vertices, P processors, b boundary vertices per processor, T local
// threads, and opTime seconds per elementary operation.
func (p Params) StaticAnalysis(n, boundary, threads int, opTime float64) Estimate {
	if threads < 1 {
		threads = 1
	}
	np := float64(n) / float64(p.P)
	logNP := math.Max(1, math.Log2(np))
	var e Estimate
	e.IA = np * np * logNP * opTime / float64(threads)
	// Per RC step: boundary DV exchange (b rows of n int32 entries to each
	// of P-1 peers) and boundary relaxation O(b·n).
	rowBytes := 4 * n
	perStepComm := p.AllToAllTime(uniformSizes(p.P, boundary*rowBytes)) +
		float64(boundary*n)*opTime
	perStepLocal := np * np * np * opTime / float64(threads)
	steps := float64(p.P - 1)
	e.RCComm = steps * perStepComm
	e.RCLocal = steps * perStepLocal
	e.Total = e.IA + e.RCComm + e.RCLocal
	return e
}

// VertexAdditionCost evaluates the paper's vertex-addition bound for adding
// x vertices with a total of y new edges at one recombination step:
//
//	O(x·log P + y·(log P + n²/P)·...) edge relaxations plus the DV resize
//	cost O(x·n) — simplified to the dominating terms:
//	broadcast of y DV rows + y relaxation sweeps over local DVs + resize.
func (p Params) VertexAdditionCost(n, x, y int, opTime float64) float64 {
	rowBytes := 4 * n
	bcast := float64(y) * p.BroadcastTime(rowBytes)
	relax := float64(y) * (float64(n) / float64(p.P)) * float64(n) * opTime
	resize := float64(x) * float64(n) * opTime
	return bcast + relax + resize
}

func uniformSizes(p int, bytes int) [][]int {
	s := make([][]int, p)
	for i := range s {
		s[i] = make([]int, p)
		for j := range s[i] {
			if i != j {
				s[i][j] = bytes
			}
		}
	}
	return s
}
