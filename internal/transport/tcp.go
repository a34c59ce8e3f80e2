// Package transport provides real byte transports for the cluster's
// exchanges. The paper ran MPI over 1 Gb/s Ethernet; this package reproduces
// that substrate with one socket mesh, PeerMesh, deployed two ways:
//
//   - TCPLoopback runs one PeerMesh endpoint per simulated processor inside a
//     single process, each with its own listener on 127.0.0.1, so the framed
//     boundary-DV messages cross the kernel's network stack and serialisation
//     and wire sizes are real rather than estimated;
//   - the coordinator/worker cluster runs one endpoint per worker process,
//     each hosting several processors.
//
// The mesh is fault-tolerant rather than fail-stop: every round runs under
// an I/O deadline, every record on the wire carries the round's sequence
// number and a CRC, a failed send redials once, and a failed receive waits
// for the peer's replacement connection. Leftover bytes from an aborted round
// are drained by sequence number (never returned as this round's data), and a
// corrupted stream resynchronises by scanning for the next record boundary.
// A round that cannot be completed surfaces as an error — callers retry or
// degrade, the process never hangs.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"aacc/internal/obs"
)

// Config tunes the mesh's fault-tolerance envelope. The zero value selects
// the defaults below; Normalize resolves them.
type Config struct {
	// RoundTimeout is the per-attempt I/O deadline: every send and receive
	// of one round attempt must complete within it. Default 30s.
	RoundTimeout time.Duration
	// SetupTimeout bounds mesh establishment (listen, dial, hello
	// handshakes). A dialer that stalls mid-hello is dropped when it
	// expires instead of wedging setup forever. Default 10s.
	SetupTimeout time.Duration
	// MaxAttempts is how many times a round is attempted before its error
	// is returned (1 = no retry). Default 3.
	MaxAttempts int
	// RetryBackoff is slept before the first retry and doubles on each
	// further one. Default 5ms.
	RetryBackoff time.Duration
	// MaxFrame caps a single frame's size. A length header beyond it is
	// treated as stream corruption (the reader resynchronises) rather than
	// an allocation request — a corrupt 4-byte header can no longer demand
	// gigabytes. Default 256 MiB.
	MaxFrame int
}

// Normalize fills unset fields with the defaults.
func (c Config) Normalize() Config {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if c.SetupTimeout <= 0 {
		c.SetupTimeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 256 << 20
	}
	return c
}

// TCPLoopback is a full mesh of loopback TCP connections between n
// simulated processors: n PeerMesh endpoints in one process, endpoint i
// hosting processor i. It implements Transport.
type TCPLoopback struct {
	cfg  Config
	ends []*PeerMesh

	// seq is the current round-attempt sequence number. It is stamped into
	// every record so receivers can tell this attempt's frames from the
	// leftovers of an aborted one. Only RoundTrip (one caller at a time,
	// per the Transport contract) touches it.
	seq uint32

	closeOnce sync.Once
	closeErr  error

	// Wire-level metrics, nil unless SetObs was called (the instruments are
	// nil-safe).
	rounds     *obs.Counter
	roundFails *obs.Counter
	retries    *obs.Counter
	rec        *obs.Recorder // flight recorder, nil-safe
}

// SetObs registers the mesh's wire metrics against reg: round counts, round
// failures, retries, and per-peer send/receive failure counters. Call once
// at setup; the wire runtime propagates the engine's registry here.
func (t *TCPLoopback) SetObs(reg *obs.Registry) {
	t.rec = reg.Events()
	t.rounds = reg.Counter("aacc_transport_wire_rounds_total", "All-to-all rounds carried over the TCP loopback mesh.")
	t.roundFails = reg.Counter("aacc_transport_wire_round_failures_total", "Rounds that failed with a transport error after exhausting their retry budget.")
	t.retries = reg.Counter("aacc_transport_retries_total", "Round attempts retried after a transient transport error.")
	// Endpoint i counts a failure against the remote processor, so a flaky
	// peer shows up under its own label.
	peerFail := make([]*obs.Counter, len(t.ends))
	for i := range peerFail {
		peerFail[i] = reg.Counter("aacc_transport_peer_failures_total",
			"Send/receive failures by the remote peer's processor rank.",
			obs.L("peer", strconv.Itoa(i)))
	}
	for _, e := range t.ends {
		e.peerFail = peerFail
	}
}

// NewTCPLoopback establishes the n×(n−1) directed connection mesh with the
// default Config.
func NewTCPLoopback(n int) (*TCPLoopback, error) {
	return NewTCPLoopbackWith(n, Config{})
}

// NewTCPLoopbackWith establishes the mesh under cfg. It binds n ephemeral
// listeners on 127.0.0.1, starts one endpoint on each, and runs one empty
// round under cfg.SetupTimeout: every endpoint dials every other and reads
// its terminator, so a mesh that cannot form fails here rather than in its
// first round.
func NewTCPLoopbackWith(n int, cfg Config) (*TCPLoopback, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least 1 processor, got %d", n)
	}
	t := &TCPLoopback{cfg: cfg.Normalize()}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("transport: listen for processor %d: %w", i, err)
		}
		lns[i], addrs[i] = l, l.Addr().String()
	}
	owner := make([]int, n)
	for p := range owner {
		owner[p] = p
	}
	for i, l := range lns {
		// Cannot fail: Self and every Owner entry are in range.
		e, _ := NewPeerMesh(l, PeerConfig{Self: i, Addrs: addrs, Owner: owner, Config: t.cfg})
		t.ends = append(t.ends, e)
	}
	if _, err := t.attempt(0, make([][][]byte, n), time.Now().Add(t.cfg.SetupTimeout)); err != nil {
		t.Close()
		return nil, fmt.Errorf("transport: mesh setup: %w", err)
	}
	return t, nil
}

// Record framing. Every record on a connection is
//
//	u32 magic   0xAACCF4A3 — the resynchronisation anchor
//	u32 seq     round-attempt sequence number
//	u32 size    payload length; 0xFFFFFFFF marks the round terminator
//	u32 crc     CRC-32 (IEEE) of the 12 header bytes above ++ payload
//	size bytes of payload (terminators carry none)
//
// The magic lets a reader that lost framing (truncated write, corrupted
// header) scan forward to the next plausible record; the seq lets it discard
// leftovers of an aborted round; the CRC catches corrupted payloads and
// headers whose magic survived.
const (
	recordMagic  = 0xAACCF4A3
	recordHdrLen = 16
	terminator   = ^uint32(0)
	// maxResyncSkip bounds how far a reader scans for a record boundary
	// before declaring the stream unrecoverable.
	maxResyncSkip = 1 << 20
)

func putRecordHeader(hdr []byte, seq, size uint32) {
	binary.LittleEndian.PutUint32(hdr[0:4], recordMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], size)
}

// writeFrame writes one record whose payload is tag ++ frame. The tag (at
// most peerTagLen bytes, nil for none) goes out in the header's write, so
// the frame itself is never copied.
func writeFrame(conn net.Conn, seq uint32, tag, frame []byte) error {
	var buf [recordHdrLen + peerTagLen]byte
	hdr := buf[:recordHdrLen+copy(buf[recordHdrLen:], tag)]
	putRecordHeader(hdr, seq, uint32(len(tag)+len(frame)))
	crc := crc32.Update(0, crc32.IEEETable, hdr[:12])
	crc = crc32.Update(crc, crc32.IEEETable, hdr[recordHdrLen:])
	crc = crc32.Update(crc, crc32.IEEETable, frame)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
	if _, err := conn.Write(hdr); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

func writeTerminator(conn net.Conn, seq uint32) error {
	var hdr [recordHdrLen]byte
	putRecordHeader(hdr[:], seq, terminator)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(hdr[:12]))
	_, err := conn.Write(hdr[:])
	return err
}

// readRecords reads one round's records from br: data frames followed by the
// round terminator, all stamped with sequence number want. Each in-round
// frame's payload is handed to onFrame (which may reject it with an error).
// Records from earlier rounds (leftovers of an aborted attempt) are drained
// silently; corrupted headers trigger a bounded scan for the next record
// boundary.
func readRecords(br *bufio.Reader, want uint32, maxFrame int, onFrame func(payload []byte) error) error {
	skipped := 0
	resync := func(n int) error {
		skipped += n
		if skipped > maxResyncSkip {
			return fmt.Errorf("framing lost: no record boundary within %d bytes", maxResyncSkip)
		}
		_, err := br.Discard(n)
		return err
	}
	for {
		hdr, err := br.Peek(recordHdrLen)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic {
			if err := resync(1); err != nil {
				return err
			}
			continue
		}
		seq := binary.LittleEndian.Uint32(hdr[4:8])
		size := binary.LittleEndian.Uint32(hdr[8:12])
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		if size == terminator {
			if crc32.ChecksumIEEE(hdr[:12]) != crc {
				// A record that looks like a terminator but fails its
				// header CRC: corruption that preserved the magic.
				if err := resync(1); err != nil {
					return err
				}
				continue
			}
			br.Discard(recordHdrLen)
			if seq == want {
				return nil
			}
			if seqAfter(seq, want) {
				return fmt.Errorf("terminator from future round %d while reading round %d", seq, want)
			}
			continue // stale terminator: drain and keep reading
		}
		if int64(size) > int64(maxFrame) {
			// A corrupt length header is a resync condition, not an
			// allocation request.
			if err := resync(1); err != nil {
				return err
			}
			continue
		}
		hdrCRC := crc32.Update(0, crc32.IEEETable, hdr[:12])
		br.Discard(recordHdrLen)
		if seq != want {
			if seqAfter(seq, want) {
				return fmt.Errorf("frame from future round %d while reading round %d", seq, want)
			}
			// Stale frame from an aborted round: drain its payload.
			if _, err := br.Discard(int(size)); err != nil {
				return err
			}
			continue
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return err
		}
		if crc32.Update(hdrCRC, crc32.IEEETable, payload) != crc {
			return fmt.Errorf("frame crc mismatch in round %d", want)
		}
		if err := onFrame(payload); err != nil {
			return err
		}
	}
}

// seqAfter reports whether a is a later sequence number than b, tolerating
// wraparound.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// RoundTrip implements Transport: every endpoint runs the round at once, and
// endpoint dst's row of its result is row dst of the returned matrix.
//
// Every attempt runs under cfg.RoundTimeout and is stamped with a fresh
// sequence number; on failure the round is retried (up to cfg.MaxAttempts
// total, with doubling backoff), and receivers discard whatever the aborted
// attempt left behind. Only after the retry budget is exhausted does the
// error surface to the caller.
func (t *TCPLoopback) RoundTrip(frames [][][]byte) ([][][]byte, error) {
	if len(frames) != len(t.ends) {
		return nil, fmt.Errorf("transport: round trip needs %d rows, got %d", len(t.ends), len(frames))
	}
	t.rounds.Inc()
	var lastErr error
	backoff := t.cfg.RetryBackoff
	for attempt := 0; attempt < t.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			t.retries.Inc()
			t.rec.Record("transport", "wire-retry", uint64(t.seq),
				fmt.Sprintf("attempt %d/%d after: %v", attempt+1, t.cfg.MaxAttempts, lastErr))
			time.Sleep(backoff)
			backoff *= 2
		}
		t.seq++
		in, err := t.attempt(t.seq, frames, time.Now().Add(t.cfg.RoundTimeout))
		if err == nil {
			return in, nil
		}
		lastErr = err
		if errors.Is(err, net.ErrClosed) {
			break // the mesh is gone; retrying cannot help
		}
	}
	t.roundFails.Inc()
	t.rec.Record("transport", "wire-round-failure", uint64(t.seq), lastErr.Error())
	return nil, lastErr
}

// attempt runs one attempt of the round on every endpoint concurrently, all
// under deadline. The diagonal stays nil: a processor's message to itself
// never takes the wire.
func (t *TCPLoopback) attempt(seq uint32, frames [][][]byte, deadline time.Time) ([][][]byte, error) {
	in := make([][][]byte, len(t.ends))
	errs := make([]error, len(t.ends))
	var wg sync.WaitGroup
	for i, e := range t.ends {
		wg.Add(1)
		go func(i int, e *PeerMesh) {
			defer wg.Done()
			rows, err := e.roundTrip(seq, frames, deadline)
			if err != nil {
				errs[i] = err
				return
			}
			in[i] = rows[i]
			in[i][i] = nil
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Close tears every endpoint down and returns the first error any of them
// reports; later calls return the same result.
func (t *TCPLoopback) Close() error {
	t.closeOnce.Do(func() {
		for _, e := range t.ends {
			if err := e.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
	})
	return t.closeErr
}

// N returns the mesh size.
func (t *TCPLoopback) N() int { return len(t.ends) }
