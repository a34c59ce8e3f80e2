package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"aacc/internal/obs"
)

// PeerMesh is one endpoint of a mesh of TCP connections between workers. The
// workers find each other by configured address: each listens on its own
// address, dials its peers on demand, and multiplexes the frames of all its
// resident processors over one connection per peer. A coordinator/worker
// cluster runs one endpoint per worker process; TCPLoopback runs one per
// simulated processor inside a single process.
//
// The mesh is built for churn. The accept loop runs for the mesh's whole
// lifetime, and a fresh hello from a known worker *replaces* that worker's
// inbound connection — a restarted worker redials and is back in the mesh
// without any global re-setup. Outbound connections are (re)dialed lazily
// when a round needs them. Round sequence numbers are supplied by the caller
// (the coordinator distributes one global sequence), so every worker stamps
// the same collective with the same seq and restarts cannot diverge; a
// failed round is not retried here — the caller decides.
type PeerMesh struct {
	self  int      // this worker's index in addrs
	addrs []string // mesh address of every worker
	owner []int    // processor -> worker index
	cfg   Config
	ln    net.Listener
	// dial opens an outbound connection; tests swap it to inject faults.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	mu      sync.Mutex
	out     []net.Conn // out[w]: dialed connection to worker w
	in      []net.Conn // in[w]: accepted connection from worker w
	inR     []*bufio.Reader
	inGen   []uint64              // accept order of in[w]; a later accept wins
	pending map[net.Conn]struct{} // accepted, hello not yet read
	wait    chan struct{}         // closed+replaced whenever an inbound conn lands
	closed  bool

	acceptDone chan struct{}

	// Wire metrics, nil-safe until SetObs.
	rounds     *obs.Counter
	roundFails *obs.Counter
	reconnects []*obs.Counter
	peerFail   []*obs.Counter
	rec        *obs.Recorder // flight recorder, nil-safe
}

// PeerConfig describes one worker's place in a mesh.
type PeerConfig struct {
	// Self is this worker's index into Addrs.
	Self int
	// Addrs holds every worker's mesh address, indexed by worker.
	Addrs []string
	// Owner maps each simulated processor to the worker that hosts it;
	// len(Owner) is the total processor count.
	Owner []int
	// Config tunes deadlines and frame limits (zero value = defaults).
	Config Config
}

// NewPeerMesh starts a mesh endpoint over ln, which the caller has already
// bound to this worker's advertised address. The mesh takes ownership of ln;
// Close tears it down. The accept loop starts immediately — peers may dial
// in before the first round.
func NewPeerMesh(ln net.Listener, cfg PeerConfig) (*PeerMesh, error) {
	n := len(cfg.Addrs)
	if n < 1 {
		return nil, fmt.Errorf("transport: peer mesh needs at least 1 worker address")
	}
	if cfg.Self < 0 || cfg.Self >= n {
		return nil, fmt.Errorf("transport: self index %d out of range for %d workers", cfg.Self, n)
	}
	for _, w := range cfg.Owner {
		if w < 0 || w >= n {
			return nil, fmt.Errorf("transport: processor owner %d out of range for %d workers", w, n)
		}
	}
	m := &PeerMesh{
		self:       cfg.Self,
		addrs:      append([]string(nil), cfg.Addrs...),
		owner:      append([]int(nil), cfg.Owner...),
		cfg:        cfg.Config.Normalize(),
		ln:         ln,
		dial:       dialTCP,
		out:        make([]net.Conn, n),
		in:         make([]net.Conn, n),
		inR:        make([]*bufio.Reader, n),
		inGen:      make([]uint64, n),
		pending:    make(map[net.Conn]struct{}),
		wait:       make(chan struct{}),
		acceptDone: make(chan struct{}),
	}
	go m.acceptLoop()
	return m, nil
}

func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// SetObs registers the mesh's wire metrics against reg. Per-peer counters
// carry both the worker index and its configured address, so a flaky or dead
// peer is identifiable from /metrics without cross-referencing logs.
func (m *PeerMesh) SetObs(reg *obs.Registry) {
	m.rec = reg.Events()
	m.rounds = reg.Counter("aacc_transport_wire_rounds_total", "All-to-all rounds carried over the worker peer mesh.")
	m.roundFails = reg.Counter("aacc_transport_wire_round_failures_total", "Rounds that failed with a transport error.")
	m.peerFail = make([]*obs.Counter, len(m.addrs))
	m.reconnects = make([]*obs.Counter, len(m.addrs))
	for w := range m.addrs {
		if w == m.self {
			continue
		}
		m.peerFail[w] = reg.Counter("aacc_transport_peer_failures_total",
			"Send/receive failures by remote worker.",
			obs.L("peer", strconv.Itoa(w)), obs.L("addr", m.addrs[w]))
		m.reconnects[w] = reg.Counter("aacc_transport_peer_reconnects_total",
			"Outbound connections re-dialed after a failure, by remote worker.",
			obs.L("peer", strconv.Itoa(w)), obs.L("addr", m.addrs[w]))
	}
}

func (m *PeerMesh) notePeerFailure(w int) {
	if m.peerFail != nil && w >= 0 && w < len(m.peerFail) && m.peerFail[w] != nil {
		m.peerFail[w].Inc()
	}
	m.rec.Record("transport", "peer-failure", 0, fmt.Sprintf("remote worker %d", w))
}

// acceptLoop admits inbound peer connections for the mesh's lifetime. Each
// hello is read on its own goroutine, so a dialer that connects and stays
// silent delays nobody else's (re)join.
func (m *PeerMesh) acceptLoop() {
	var hellos sync.WaitGroup
	defer close(m.acceptDone)
	defer hellos.Wait()
	for gen := uint64(1); ; gen++ {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed: the mesh is shutting down
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.pending[conn] = struct{}{}
		m.mu.Unlock()
		hellos.Add(1)
		go func(conn net.Conn, gen uint64) {
			defer hellos.Done()
			m.admit(conn, gen)
		}(conn, gen)
	}
}

// admit reads conn's hello under SetupTimeout and installs conn as the
// dialer's inbound connection. A hello from a worker that already has an
// inbound slot replaces it (the old connection is closed): that is how a
// restarted peer rejoins. The ack goes out before the slot is taken, so two
// hellos from one worker can finish out of order; the later-accepted
// connection wins.
func (m *PeerMesh) admit(conn net.Conn, gen uint64) {
	rank, err := AcceptHello(conn, len(m.addrs), time.Now().Add(m.cfg.SetupTimeout))
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.pending, conn)
	if m.closed {
		return // conn was still pending when Close ran, so Close closed it
	}
	if err != nil || rank == m.self || gen < m.inGen[rank] {
		conn.Close()
		return
	}
	if old := m.in[rank]; old != nil {
		old.Close()
	}
	m.in[rank], m.inR[rank], m.inGen[rank] = conn, bufio.NewReaderSize(conn, 1<<16), gen
	close(m.wait)
	m.wait = make(chan struct{})
}

// getIn waits (until deadline) for an inbound connection from worker w other
// than stale. The wait is how a round started just after a peer restarts
// still completes: the reader blocks here until the peer's redial lands.
func (m *PeerMesh) getIn(w int, stale net.Conn, deadline time.Time) (net.Conn, *bufio.Reader, error) {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, nil, net.ErrClosed
		}
		if c := m.in[w]; c != nil && c != stale {
			r := m.inR[w]
			m.mu.Unlock()
			return c, r, nil
		}
		ch := m.wait
		m.mu.Unlock()
		d := time.Until(deadline)
		if d <= 0 {
			return nil, nil, fmt.Errorf("no inbound connection from worker %d (%s) within deadline", w, m.addrs[w])
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// getOut returns the outbound connection to worker w, dialing it if absent.
func (m *PeerMesh) getOut(w int, deadline time.Time) (net.Conn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, net.ErrClosed
	}
	if c := m.out[w]; c != nil {
		m.mu.Unlock()
		return c, nil
	}
	m.mu.Unlock()
	conn, err := m.dial(m.addrs[w], time.Until(deadline))
	if err != nil {
		return nil, err
	}
	if err := DialHello(conn, m.self, deadline); err != nil {
		conn.Close()
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		conn.Close()
		return nil, net.ErrClosed
	}
	if old := m.out[w]; old != nil {
		// Lost a race with another dial; keep the established one.
		conn.Close()
		return old, nil
	}
	m.out[w] = conn
	return conn, nil
}

// dropOut discards a failed outbound connection so the next round redials.
// If Close already took c, closing it is left to Close.
func (m *PeerMesh) dropOut(w int, c net.Conn) {
	m.mu.Lock()
	owned := m.out[w] == c
	if owned {
		m.out[w] = nil
	}
	m.mu.Unlock()
	if owned {
		c.Close()
	}
}

// Each data record in a peer round is tagged with its logical endpoints,
// since one connection multiplexes all processor pairs between two workers:
//
//	u32 src processor | u32 dst processor | frame bytes
const peerTagLen = 8

// RoundTrip carries one personalised all-to-all round for the whole
// processor matrix: frames[src][dst] is the encoded payload from processor
// src to processor dst; the result is indexed [dst][src]. Only rows whose
// src is resident on this worker are sent; only cells whose dst is resident
// here come back — the other workers run the same call with the same seq and
// each keeps its own slice of the matrix. Pairs resident on this worker
// never touch a socket.
//
// One call is one attempt: a failure is returned without retry, and the
// caller must not reuse seq for the repaired round (stale records are
// drained by sequence number on the next call).
func (m *PeerMesh) RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error) {
	return m.roundTrip(seq, frames, time.Now().Add(m.cfg.RoundTimeout))
}

func (m *PeerMesh) roundTrip(seq uint32, frames [][][]byte, deadline time.Time) ([][][]byte, error) {
	p := len(m.owner)
	if len(frames) != p {
		return nil, fmt.Errorf("transport: peer round needs %d rows, got %d", p, len(frames))
	}
	m.rounds.Inc()
	in := make([][][]byte, p)
	for dst := range in {
		in[dst] = make([][]byte, p)
	}
	// Local delivery first: pairs hosted entirely on this worker.
	for src := 0; src < p; src++ {
		if m.owner[src] != m.self || frames[src] == nil {
			continue
		}
		for dst, frame := range frames[src] {
			if frame != nil && m.owner[dst] == m.self {
				in[dst][src] = frame
			}
		}
	}
	write := func(w int, conn net.Conn) error {
		var tag [peerTagLen]byte
		for src := 0; src < p; src++ {
			if m.owner[src] != m.self || frames[src] == nil {
				continue
			}
			for dst, frame := range frames[src] {
				if frame == nil || m.owner[dst] != w {
					continue
				}
				binary.LittleEndian.PutUint32(tag[0:4], uint32(src))
				binary.LittleEndian.PutUint32(tag[4:8], uint32(dst))
				if err := writeFrame(conn, seq, tag[:], frame); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := m.collective(seq, deadline, write, func(w int, payload []byte) error {
		return m.deliver(w, in, payload)
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// deliver files one tagged record received from worker w into in, rejecting
// records this worker should not have been sent.
func (m *PeerMesh) deliver(w int, in [][][]byte, payload []byte) error {
	if len(payload) < peerTagLen {
		return fmt.Errorf("short peer record (%d bytes)", len(payload))
	}
	src := int(binary.LittleEndian.Uint32(payload[0:4]))
	dst := int(binary.LittleEndian.Uint32(payload[4:8]))
	if src < 0 || src >= len(m.owner) || m.owner[src] != w {
		return fmt.Errorf("record claims source processor %d, not resident on worker %d", src, w)
	}
	if dst < 0 || dst >= len(m.owner) || m.owner[dst] != m.self {
		return fmt.Errorf("record for processor %d, not resident here", dst)
	}
	if in[dst][src] != nil {
		return fmt.Errorf("duplicate record %d->%d", src, dst)
	}
	in[dst][src] = payload[peerTagLen:]
	return nil
}

// AllGather shares one worker-level payload with every peer and returns all
// workers' payloads indexed by worker (this worker's own payload included).
// It rides the same framed rounds as RoundTrip and therefore needs its own
// fresh seq from the caller.
func (m *PeerMesh) AllGather(seq uint32, payload []byte) ([][]byte, error) {
	out := make([][]byte, len(m.addrs))
	err := m.collective(seq, time.Now().Add(m.cfg.RoundTimeout), func(w int, conn net.Conn) error {
		return writeFrame(conn, seq, nil, payload)
	}, func(w int, rec []byte) error {
		if out[w] != nil {
			return fmt.Errorf("two all-gather records from worker %d", w)
		}
		out[w] = rec
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w := range out {
		if w != m.self && out[w] == nil {
			m.roundFails.Inc()
			return nil, fmt.Errorf("transport: no all-gather record from worker %d (round %d)", w, seq)
		}
	}
	out[m.self] = payload
	return out, nil
}

// collective runs one round with every peer worker at once under deadline:
// write emits this worker's data records for peer w, and onRecord receives
// each data record w sent. Calls for different peers run concurrently.
func (m *PeerMesh) collective(seq uint32, deadline time.Time, write func(w int, conn net.Conn) error, onRecord func(w int, payload []byte) error) error {
	errs := make([]error, 2*len(m.addrs))
	var wg sync.WaitGroup
	for w := range m.addrs {
		if w == m.self {
			continue
		}
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			if err := m.sendTo(w, seq, deadline, write); err != nil {
				m.notePeerFailure(w)
				errs[2*w] = fmt.Errorf("transport: send to worker %d (round %d): %w", w, seq, err)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			if err := m.recvFrom(w, seq, deadline, onRecord); err != nil {
				m.notePeerFailure(w)
				errs[2*w+1] = fmt.Errorf("transport: recv from worker %d (round %d): %w", w, seq, err)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			m.roundFails.Inc()
			return err
		}
	}
	return nil
}

// sendTo writes this worker's records for worker w, then the round
// terminator. A write failure on a cached connection triggers one redial
// within the round deadline — the fast path for a peer that restarted since
// the last round.
func (m *PeerMesh) sendTo(w int, seq uint32, deadline time.Time, write func(w int, conn net.Conn) error) error {
	for redialed := false; ; redialed = true {
		conn, err := m.getOut(w, deadline)
		if err != nil {
			return err
		}
		conn.SetWriteDeadline(deadline)
		if err = write(w, conn); err == nil {
			err = writeTerminator(conn, seq)
		}
		if err == nil {
			return nil
		}
		m.dropOut(w, conn)
		if redialed {
			return err
		}
		// The cached connection may be a casualty of the peer's earlier
		// crash even though the peer itself is back.
		if m.reconnects != nil && m.reconnects[w] != nil {
			m.reconnects[w].Inc()
		}
		m.rec.Record("transport", "peer-reconnect", uint64(seq), fmt.Sprintf("re-dialing worker %d", w))
	}
}

// recvFrom reads worker w's records for round seq and hands each to onRecord
// once the round's terminator has arrived. A read failure does not doom the
// round immediately: if a fresh inbound connection from w lands within the
// deadline (the peer restarted and redialed), the partial round is dropped
// and re-read from the replacement — so the first round after a rejoin
// completes instead of failing on the dead incarnation's connection.
func (m *PeerMesh) recvFrom(w int, seq uint32, deadline time.Time, onRecord func(w int, payload []byte) error) error {
	var stale net.Conn
	var lastErr error
	for {
		conn, br, err := m.getIn(w, stale, deadline)
		if err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		conn.SetReadDeadline(deadline)
		var recs [][]byte
		lastErr = readRecords(br, seq, m.cfg.MaxFrame, func(payload []byte) error {
			recs = append(recs, payload)
			return nil
		})
		if lastErr == nil {
			for _, rec := range recs {
				if err := onRecord(w, rec); err != nil {
					return err
				}
			}
			return nil
		}
		stale = conn
	}
}

// Close tears the mesh down: the listener stops accepting, every connection
// in both directions (and every hello still being read) is closed, and the
// first close error is returned. Safe to call more than once.
func (m *PeerMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.wait)
	m.wait = make(chan struct{})
	conns := append(append([]net.Conn(nil), m.out...), m.in...)
	for c := range m.pending {
		conns = append(conns, c)
	}
	clear(m.out)
	clear(m.in)
	m.mu.Unlock()
	err := m.ln.Close()
	for _, c := range conns {
		if c == nil {
			continue
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	<-m.acceptDone
	return err
}

// Addr returns the listener's bound address (useful when the configured
// address used port 0).
func (m *PeerMesh) Addr() string { return m.ln.Addr().String() }
