// Package cluster provides the in-process simulated machine the engine's
// execution runtimes are built from: P logical processors executed by a
// bounded goroutine pool, a personalised all-to-all exchange matching the
// paper's one-message-at-a-time communication schedule, a binomial-tree
// broadcast, and full traffic accounting (bytes, messages, modelled LogP
// time, measured compute time).
//
// The paper ran 16 MPI processes on a Linux cluster; here the same message
// pattern is executed in-process. Payloads are handed over by reference (no
// serialisation), but every exchange declares its wire size so the LogP
// model prices it exactly as the cluster network would. Cluster is the
// reference implementation of runtime.Runtime (internal/runtime); the wire
// runtime composes a Cluster with a WireCodec and a byte transport to carry
// the same exchanges over real sockets.
package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"aacc/internal/logp"
	"aacc/internal/obs"
)

// Mail is one point-to-point payload with its modelled wire size.
type Mail struct {
	Payload any
	Bytes   int
}

// WireCodec serialises payloads for a byte transport. Implementations must
// round-trip: Decode(Encode(p)) is equivalent to p.
type WireCodec interface {
	Encode(payload any) ([]byte, error)
	Decode(frame []byte) (any, error)
}

// Stats aggregates the cluster's accounting counters. Every runtime
// implementation reports this same schema, so sim-mode and wire-mode
// analyses emit identical observability records.
type Stats struct {
	// SimCompute is modelled parallel compute time: per Parallel call, the
	// maximum of the per-processor measured times.
	SimCompute time.Duration
	// SimComm is modelled communication time priced by the LogP model.
	SimComm time.Duration
	// BytesSent and MessagesSent count all point-to-point payloads.
	BytesSent    int64
	MessagesSent int64
	// ExchangeRounds counts Exchange calls (RC-step boundary exchanges).
	ExchangeRounds int64
	// Broadcasts counts tree broadcasts.
	Broadcasts int64
}

// SimTotal is the modelled total parallel runtime.
func (s Stats) SimTotal() time.Duration { return s.SimCompute + s.SimComm }

// Merge folds another participant's accounting of the *same* analysis into
// s, as a multi-process coordinator does with per-worker stats. Traffic,
// communication time and broadcasts add — each worker accounts only the
// messages it sent itself and the broadcasts rooted at its own processors.
// Exchange rounds and modelled parallel compute take the maximum — every
// worker participates in the same global rounds, and the parallel time of a
// section is its slowest participant, not the sum.
func (s Stats) Merge(o Stats) Stats {
	if o.SimCompute > s.SimCompute {
		s.SimCompute = o.SimCompute
	}
	s.SimComm += o.SimComm
	s.BytesSent += o.BytesSent
	s.MessagesSent += o.MessagesSent
	if o.ExchangeRounds > s.ExchangeRounds {
		s.ExchangeRounds = o.ExchangeRounds
	}
	s.Broadcasts += o.Broadcasts
	return s
}

// Cluster is a simulated P-processor machine exchanging payloads by
// reference. It is the in-process execution runtime (runtime.Sim).
type Cluster struct {
	p     int
	model logp.Params
	pool  int

	mu    sync.Mutex
	stats Stats
	om    *obsCounters // nil unless SetObs was called
}

// obsCounters mirrors the cluster's traffic accounting into a live metrics
// registry. The counters are written inside the same critical sections that
// update Stats, once per accounting event (per exchange round, not per
// message), so the overhead is a handful of atomic adds per RC step.
type obsCounters struct {
	bytes      *obs.Counter
	sends      *obs.Counter
	rounds     *obs.Counter
	broadcasts *obs.Counter
	compute    *obs.Counter
	comm       *obs.Counter
}

// SetObs registers the runtime's traffic metrics against reg and starts
// mirroring every accounting event into them. Call once at setup, before
// the analysis runs; the engine does this when core.Options.Obs is set.
func (c *Cluster) SetObs(reg *obs.Registry) {
	om := &obsCounters{
		bytes:      reg.Counter("aacc_transport_bytes_total", "Point-to-point payload bytes sent across the runtime's exchanges and broadcasts."),
		sends:      reg.Counter("aacc_transport_sends_total", "Point-to-point messages sent across the runtime's exchanges and broadcasts."),
		rounds:     reg.Counter("aacc_transport_exchange_rounds_total", "Personalised all-to-all exchange rounds (one per RC step that sent mail)."),
		broadcasts: reg.Counter("aacc_transport_broadcasts_total", "Tree broadcasts."),
		compute:    reg.Counter("aacc_runtime_compute_seconds_total", "Modelled parallel compute seconds (max per-processor time per Parallel section)."),
		comm:       reg.Counter("aacc_runtime_comm_seconds_total", "Modelled communication seconds priced by the LogP model."),
	}
	c.mu.Lock()
	c.om = om
	c.mu.Unlock()
}

// New returns a cluster of p simulated processors priced by model. The
// number of host goroutines running processor work concurrently is
// min(p, GOMAXPROCS); results are independent of the pool size because
// processors only touch their own state during Parallel sections.
func New(p int, model logp.Params) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("cluster: need at least 1 processor, got %d", p))
	}
	model.P = p
	pool := runtime.GOMAXPROCS(0)
	if pool > p {
		pool = p
	}
	return &Cluster{p: p, model: model, pool: pool}
}

// P returns the number of simulated processors.
func (c *Cluster) P() int { return c.p }

// Model returns the LogP parameters pricing this cluster's network.
func (c *Cluster) Model() logp.Params { return c.model }

// Stats returns a snapshot of the accounting counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the accounting counters.
func (c *Cluster) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// Close releases nothing: the in-process cluster holds no external
// resources. It exists so Cluster satisfies runtime.Runtime.
func (c *Cluster) Close() error { return nil }

// Parallel runs fn(proc) for every processor 0..P-1 on the worker pool and
// waits for all to finish (a BSP superstep's compute phase). The modelled
// parallel time of the section is the maximum per-processor duration, which
// is what a real P-processor machine would take; this is how a single-core
// host still produces 16-processor-shaped results.
func (c *Cluster) Parallel(fn func(proc int)) { c.ParallelRange(0, c.p, fn) }

// ParallelRange is Parallel restricted to processors [lo,hi): the compute
// phase of a runtime that hosts only that slice in this process (the other
// processes run their own ranges concurrently).
func (c *Cluster) ParallelRange(lo, hi int, fn func(proc int)) {
	n := hi - lo
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	work := make(chan int, n)
	for i := lo; i < hi; i++ {
		work <- i
	}
	close(work)
	for w := 0; w < c.pool && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for proc := range work {
				start := time.Now()
				fn(proc)
				durs[proc-lo] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	var max time.Duration
	for _, d := range durs {
		if d > max {
			max = d
		}
	}
	c.AccountCompute(max)
}

// Exchange performs the personalised all-to-all of the recombination phase:
// out[src][dst] is the mail from src to dst (nil = nothing). It returns
// in[dst][src], and prices the exchange with the paper's schedule in which
// only one message traverses the network at any given time (the P(P-1)
// sends are sequential on the wire). The in-memory exchange hands payloads
// over by reference and cannot fail; the error return exists for the shared
// runtime.Runtime contract, where wire-backed exchanges can.
func (c *Cluster) Exchange(out [][]*Mail) ([][]*Mail, error) {
	if len(out) != c.p {
		panic(fmt.Sprintf("cluster: Exchange needs %d rows, got %d", c.p, len(out)))
	}
	in := make([][]*Mail, c.p)
	for i := range in {
		in[i] = make([]*Mail, c.p)
	}
	sizes := make([][]int, c.p)
	for src := range out {
		sizes[src] = make([]int, c.p)
		if out[src] == nil {
			continue
		}
		if len(out[src]) != c.p {
			panic(fmt.Sprintf("cluster: Exchange row %d has %d columns, want %d", src, len(out[src]), c.p))
		}
		for dst, m := range out[src] {
			if m == nil || src == dst {
				continue
			}
			in[dst][src] = m
			sizes[src][dst] = m.Bytes
		}
	}
	c.AccountExchange(sizes)
	return in, nil
}

// AccountExchange prices one personalised all-to-all round whose message
// sizes were sizes[src][dst] bytes (0 = no message) and folds it into the
// counters. The in-memory Exchange calls it with the callers' size
// estimates; composing runtimes (the wire runtime) call it with measured
// frame sizes.
func (c *Cluster) AccountExchange(sizes [][]int) {
	var bytes, msgs int64
	for src := range sizes {
		for _, n := range sizes[src] {
			if n > 0 {
				bytes += int64(n)
				msgs++
			}
		}
	}
	comm := c.model.AllToAllTime(sizes)
	c.mu.Lock()
	c.stats.SimComm += time.Duration(comm * float64(time.Second))
	c.stats.BytesSent += bytes
	c.stats.MessagesSent += msgs
	c.stats.ExchangeRounds++
	om := c.om
	c.mu.Unlock()
	if om != nil {
		om.bytes.Add(float64(bytes))
		om.sends.Add(float64(msgs))
		om.rounds.Inc()
		om.comm.Add(comm)
	}
}

// Broadcast accounts a binomial-tree broadcast of one payload of the given
// size from root to all other processors and returns the payload for the
// caller to distribute (delivery itself is by shared memory). The paper's
// vertex-addition strategy uses this to ship new-vertex DV rows.
func (c *Cluster) Broadcast(root int, m *Mail) *Mail {
	if root < 0 || root >= c.p {
		panic(fmt.Sprintf("cluster: Broadcast root %d out of range", root))
	}
	comm := c.model.BroadcastTime(m.Bytes)
	c.mu.Lock()
	c.stats.SimComm += time.Duration(comm * float64(time.Second))
	c.stats.BytesSent += int64(m.Bytes) * int64(c.p-1)
	c.stats.MessagesSent += int64(c.p - 1)
	c.stats.Broadcasts++
	om := c.om
	c.mu.Unlock()
	if om != nil {
		om.bytes.Add(float64(m.Bytes) * float64(c.p-1))
		om.sends.Add(float64(c.p - 1))
		om.broadcasts.Inc()
		om.comm.Add(comm)
	}
	return m
}

// AccountCompute adds measured compute time to the modelled total. It is
// used for work outside Parallel sections (e.g. the DD-phase partitioner,
// which the paper runs as a parallel library; charging its full serial time
// here is conservative against the repartitioning strategies).
func (c *Cluster) AccountCompute(d time.Duration) {
	c.mu.Lock()
	c.stats.SimCompute += d
	om := c.om
	c.mu.Unlock()
	if om != nil {
		om.compute.Add(d.Seconds())
	}
}

// AccountPointToPoint prices one extra point-to-point message outside an
// Exchange (e.g. Repartition-S migrating a vertex's partial results).
func (c *Cluster) AccountPointToPoint(bytes int) {
	comm := c.model.SendTime(bytes)
	c.mu.Lock()
	c.stats.SimComm += time.Duration(comm * float64(time.Second))
	c.stats.BytesSent += int64(bytes)
	c.stats.MessagesSent++
	om := c.om
	c.mu.Unlock()
	if om != nil {
		om.bytes.Add(float64(bytes))
		om.sends.Inc()
		om.comm.Add(comm)
	}
}
