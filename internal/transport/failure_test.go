package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"aacc/internal/obs"
)

// Failure-path coverage: the framing reader against truncated, stale and
// malformed streams, retry and resynchronisation after failed rounds, setup
// against misbehaving dialers, and Close semantics under concurrency. The
// contract throughout: errors surface within the configured deadlines, stale
// bytes are never returned as fresh data, and nothing hangs.

// readRound reads one round's frames from br through the shared record
// reader, with the default frame cap.
func readRound(br *bufio.Reader, want uint32) ([][]byte, error) {
	var frames [][]byte
	err := readRecords(br, want, Config{}.Normalize().MaxFrame, func(payload []byte) error {
		frames = append(frames, payload)
		return nil
	})
	return frames, err
}

// readOne reads a round that must carry exactly one frame.
func readOne(t *testing.T, br *bufio.Reader, want uint32) []byte {
	t.Helper()
	frames, err := readRound(br, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("round %d carried %d frames, want 1", want, len(frames))
	}
	return frames[0]
}

// pipePair returns a connected in-process conn pair with a deadline so a
// framing bug fails the test instead of hanging it.
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	dl := time.Now().Add(5 * time.Second)
	a.SetDeadline(dl)
	b.SetDeadline(dl)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestReadRoundShortHeader(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		a.Write([]byte{7, 0}) // a fraction of a record header
		a.Close()
	}()
	if _, err := readRound(bufio.NewReader(b), 1); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReadRoundTruncatedPayload(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		var hdr [recordHdrLen]byte
		putRecordHeader(hdr[:], 1, 100) // promise 100 bytes
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(hdr[:12]))
		a.Write(hdr[:])
		a.Write([]byte("only twenty bytes...")) // deliver 20
		a.Close()
	}()
	if _, err := readRound(bufio.NewReader(b), 1); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestReadRoundMissingTerminator(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		writeFrame(a, 1, nil, []byte("complete frame, no terminator"))
		a.Close()
	}()
	if _, err := readRound(bufio.NewReader(b), 1); err == nil {
		t.Fatal("round without terminator accepted")
	}
}

// TestReadRoundTwoFramesOneRound sends two tagged frames for one processor
// pair in one round: the first is filed, the second rejected.
func TestReadRoundTwoFramesOneRound(t *testing.T) {
	a, b := pipePair(t)
	tag := []byte{1, 0, 0, 0, 0, 0, 0, 0} // processor 1 -> processor 0
	go func() {
		writeFrame(a, 1, tag, []byte("first"))
		writeFrame(a, 1, tag, []byte("second"))
		writeTerminator(a, 1)
	}()
	m := &PeerMesh{self: 0, owner: []int{0, 1}}
	in := [][][]byte{make([][]byte, 2), make([][]byte, 2)}
	err := readRecords(bufio.NewReader(b), 1, Config{}.Normalize().MaxFrame, func(payload []byte) error {
		return m.deliver(1, in, payload)
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate record 1->0") {
		t.Fatalf("second frame in a round: err = %v", err)
	}
	if string(in[0][1]) != "first" {
		t.Fatalf("first frame filed as %q", in[0][1])
	}
}

func TestReadRoundZeroLengthFrame(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		writeFrame(a, 1, nil, []byte{})
		writeTerminator(a, 1)
	}()
	frame := readOne(t, bufio.NewReader(b), 1)
	// A zero-length frame is a real (empty) message, distinct from the nil
	// of "nothing sent this round".
	if frame == nil || len(frame) != 0 {
		t.Fatalf("zero-length frame read back as %v", frame)
	}
}

func TestReadRoundDrainsStaleRecords(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		// Leftovers of aborted rounds 1 and 2, then the live round 3.
		writeFrame(a, 1, nil, []byte("stale one"))
		writeTerminator(a, 1)
		writeFrame(a, 2, nil, []byte("stale two"))
		writeFrame(a, 3, nil, []byte("fresh"))
		writeTerminator(a, 3)
	}()
	if frame := readOne(t, bufio.NewReader(b), 3); string(frame) != "fresh" {
		t.Fatalf("round 3 read %q, want the fresh frame", frame)
	}
}

func TestReadRoundRejectsFutureSeq(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		writeFrame(a, 9, nil, []byte("from the future"))
		writeTerminator(a, 9)
	}()
	_, err := readRound(bufio.NewReader(b), 3)
	if err == nil || !strings.Contains(err.Error(), "future round") {
		t.Fatalf("future-round frame: err = %v", err)
	}
}

func TestReadRoundResyncsPastGarbage(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		a.Write([]byte("line noise that is definitely not a record header"))
		writeFrame(a, 1, nil, []byte("recovered"))
		writeTerminator(a, 1)
	}()
	if frame := readOne(t, bufio.NewReader(b), 1); string(frame) != "recovered" {
		t.Fatalf("resync read %q", frame)
	}
}

// TestReadRoundHugeLengthHeaderDoesNotAllocate feeds a header whose length
// field demands ~4 GiB. The reader must treat it as corruption and
// resynchronise, not allocate.
func TestReadRoundHugeLengthHeaderDoesNotAllocate(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		var hdr [recordHdrLen]byte
		putRecordHeader(hdr[:], 1, 0xFFFFFFF0) // not the terminator marker
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(hdr[:12]))
		a.Write(hdr[:])
		writeFrame(a, 1, nil, []byte("after the bomb"))
		writeTerminator(a, 1)
	}()
	if frame := readOne(t, bufio.NewReader(b), 1); string(frame) != "after the bomb" {
		t.Fatalf("read %q", frame)
	}
}

func TestReadRoundCRCMismatch(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		payload := []byte("checksummed")
		var hdr [recordHdrLen]byte
		putRecordHeader(hdr[:], 1, uint32(len(payload)))
		crc := crc32.Update(0, crc32.IEEETable, hdr[:12])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		binary.LittleEndian.PutUint32(hdr[12:16], crc^0xDEAD) // poison the CRC
		a.Write(hdr[:])
		a.Write(payload)
		writeTerminator(a, 1)
	}()
	_, err := readRound(bufio.NewReader(b), 1)
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("corrupt payload: err = %v", err)
	}
}

// flakyConn wraps a mesh connection and fails a set number of writes, leaving
// a partial header on the wire when asked — the shape of a torn transfer.
type flakyConn struct {
	net.Conn
	mu         sync.Mutex
	failWrites int
	partial    bool
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	fail := c.failWrites > 0
	if fail {
		c.failWrites--
	}
	partial := c.partial
	c.mu.Unlock()
	if fail {
		if partial && len(p) > 1 {
			n, _ := c.Conn.Write(p[:len(p)/2])
			return n, errors.New("injected write failure (torn)")
		}
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// fastMesh builds a mesh with short timeouts so failure paths resolve in
// test time, not operational time.
func fastMesh(t *testing.T, n int, cfg Config) *TCPLoopback {
	t.Helper()
	mesh, err := NewTCPLoopbackWith(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Close() })
	return mesh
}

func meshFrames(n int, fill func(src, dst int) []byte) [][][]byte {
	frames := make([][][]byte, n)
	for src := range frames {
		frames[src] = make([][]byte, n)
		for dst := range frames[src] {
			if src != dst {
				frames[src][dst] = fill(src, dst)
			}
		}
	}
	return frames
}

// swapOut replaces endpoint e's outbound connection to worker w with
// wrap(conn), so the next round writes through the wrapper.
func swapOut(e *PeerMesh, w int, wrap func(net.Conn) net.Conn) {
	e.mu.Lock()
	e.out[w] = wrap(e.out[w])
	e.mu.Unlock()
}

// refuseDial is a dial hook under which every redial fails.
func refuseDial(string, time.Duration) (net.Conn, error) {
	return nil, errors.New("injected dial refusal")
}

// TestRoundTripRetriesTornWrite tears one connection's first write mid-header
// and refuses the endpoint's one redial, so the attempt fails; the round must
// then succeed on retry, with the retry counted and the receiver reading the
// fresh attempt past the torn bytes.
func TestRoundTripRetriesTornWrite(t *testing.T) {
	mesh := fastMesh(t, 3, Config{RoundTimeout: 300 * time.Millisecond, RetryBackoff: time.Millisecond})
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	e := mesh.ends[0]
	swapOut(e, 1, func(c net.Conn) net.Conn { return &flakyConn{Conn: c, failWrites: 1, partial: true} })
	e.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		e.dial = dialTCP // refuse once; the retry dials normally
		return refuseDial(addr, timeout)
	}
	frames := meshFrames(3, func(src, dst int) []byte {
		return []byte{byte(src), byte(dst), 0xAB}
	})
	in, err := mesh.RoundTrip(frames)
	if err != nil {
		t.Fatalf("retry did not recover the round: %v", err)
	}
	for dst := 0; dst < 3; dst++ {
		for src := 0; src < 3; src++ {
			if src == dst {
				continue
			}
			if !bytes.Equal(in[dst][src], []byte{byte(src), byte(dst), 0xAB}) {
				t.Fatalf("frame %d->%d = %v", src, dst, in[dst][src])
			}
		}
	}
	if got := mesh.retries.Value(); got < 1 {
		t.Fatalf("retries counter = %v, want >= 1", got)
	}
}

// TestRoundTripFailsWithinDeadlineNoHang removes the retry budget and breaks
// one sender permanently, redials included: the round must error out within
// the round deadline — the regression test for the missing-terminator
// deadlock, where receivers blocked forever on a peer that bailed out.
func TestRoundTripFailsWithinDeadlineNoHang(t *testing.T) {
	mesh := fastMesh(t, 3, Config{RoundTimeout: 500 * time.Millisecond, MaxAttempts: 1})
	dead := func(c net.Conn) net.Conn { return &flakyConn{Conn: c, failWrites: 1 << 30} }
	e := mesh.ends[0]
	swapOut(e, 1, dead)
	e.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := dialTCP(addr, timeout)
		if err != nil {
			return nil, err
		}
		return dead(c), nil
	}
	frames := meshFrames(3, func(src, dst int) []byte { return []byte("payload") })
	done := make(chan error, 1)
	go func() {
		_, err := mesh.RoundTrip(frames)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("round with a dead sender succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("partially failed round hung instead of erroring")
	}
}

// gateConn passes its first gate writes through and fails every later one.
type gateConn struct {
	net.Conn
	mu   sync.Mutex
	gate int
}

func (c *gateConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	g := c.gate
	if g > 0 {
		c.gate--
	}
	c.mu.Unlock()
	if g == 0 {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestRoundAfterFailureDeliversFreshData fails one round completely — the
// frame goes out whole but its terminator does not, and the redial is
// refused, leaving a complete stale frame on the wire — then runs a healthy
// round and checks every delivered frame is the new round's, never the
// leftovers.
func TestRoundAfterFailureDeliversFreshData(t *testing.T) {
	mesh := fastMesh(t, 3, Config{RoundTimeout: 400 * time.Millisecond, MaxAttempts: 1})
	e := mesh.ends[0]
	// writeFrame is two writes (header, payload); the terminator is the
	// third. Allow exactly two, so the stale frame lands intact.
	swapOut(e, 1, func(c net.Conn) net.Conn { return &gateConn{Conn: c, gate: 2} })
	e.dial = refuseDial
	staleRound := meshFrames(3, func(src, dst int) []byte { return []byte("stale") })
	if _, err := mesh.RoundTrip(staleRound); err == nil {
		t.Fatal("expected the sabotaged round to fail")
	}
	e.dial = dialTCP
	freshRound := meshFrames(3, func(src, dst int) []byte { return []byte("fresh") })
	in, err := mesh.RoundTrip(freshRound)
	if err != nil {
		t.Fatalf("post-failure round did not recover: %v", err)
	}
	for dst := 0; dst < 3; dst++ {
		for src := 0; src < 3; src++ {
			if src == dst {
				continue
			}
			if string(in[dst][src]) != "fresh" {
				t.Fatalf("frame %d->%d = %q: stale data survived the failed round", src, dst, in[dst][src])
			}
		}
	}
}

func TestRoundTripAfterCloseErrors(t *testing.T) {
	mesh, err := NewTCPLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	frames := make([][][]byte, 3)
	for i := range frames {
		frames[i] = make([][]byte, 3)
	}
	frames[0][1] = []byte("into the void")
	if _, err := mesh.RoundTrip(frames); err == nil {
		t.Fatal("RoundTrip on a closed mesh succeeded")
	}
}

func TestDoubleCloseReturnsSameResult(t *testing.T) {
	mesh, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	first := mesh.Close()
	second := mesh.Close()
	if first != second {
		t.Fatalf("double Close disagreed: %v then %v", first, second)
	}
}

// errCloseConn reports a fixed error from Close.
type errCloseConn struct {
	net.Conn
	err error
}

func (c *errCloseConn) Close() error {
	c.Conn.Close()
	return c.err
}

// TestCloseSurfacesInboxErrors plants a failing Close on an accept-side
// (inbound) connection: the mesh's Close must report it, not just dial-side
// errors.
func TestCloseSurfacesInboxErrors(t *testing.T) {
	mesh, err := NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("inbox close failed")
	e := mesh.ends[0]
	e.mu.Lock()
	e.in[1] = &errCloseConn{Conn: e.in[1], err: boom}
	e.mu.Unlock()
	if got := mesh.Close(); !errors.Is(got, boom) {
		t.Fatalf("Close = %v, want the inbox-side error", got)
	}
}

// acceptOnly starts a 2-worker mesh endpoint (worker 0) whose peer never
// comes up, for driving its accept side by hand.
func acceptOnly(t *testing.T, cfg Config) *PeerMesh {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewPeerMesh(l, PeerConfig{Self: 0, Addrs: []string{l.Addr().String(), "127.0.0.1:1"}, Owner: []int{0, 1}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestSetupToleratesRogueDialer connects a rogue that aborts mid-hello; the
// accept side must discard it and still complete the handshake with the
// legitimate dialer.
func TestSetupToleratesRogueDialer(t *testing.T) {
	m := acceptOnly(t, Config{SetupTimeout: 5 * time.Second})
	// Rogue: half a hello, then gone.
	if c, err := net.Dial("tcp", m.Addr()); err == nil {
		c.Write([]byte{1})
		c.Close()
	}
	// Legitimate dialer: rank 1's full versioned hello.
	c, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	if err := DialHello(c, 1, deadline); err != nil {
		t.Fatalf("legitimate hello rejected after a rogue dialer: %v", err)
	}
	if _, _, err := m.getIn(1, nil, deadline); err != nil {
		t.Fatalf("legitimate hello not registered: %v", err)
	}
}

// TestSetupStalledHelloTimesOut connects a dialer that never sends its hello:
// the endpoint must close it within the setup deadline and register no
// inbound connection for it — the regression test for the unbounded
// accept-side hello read.
func TestSetupStalledHelloTimesOut(t *testing.T) {
	m := acceptOnly(t, Config{SetupTimeout: 300 * time.Millisecond})
	staller, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer staller.Close()
	staller.SetReadDeadline(time.Now().Add(3 * time.Second)) // ten setup deadlines
	var buf [1]byte
	if _, err := staller.Read(buf[:]); !errors.Is(err, io.EOF) {
		t.Fatalf("stalled dialer read %v, want EOF from the endpoint closing it", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for w, c := range m.in {
		if c != nil {
			t.Fatalf("stalled dialer registered as worker %d", w)
		}
	}
}

// TestCloseRacesInFlightRoundTrip closes the mesh while RoundTrips are in
// flight from another goroutine. The contract under test is narrow: no
// panic, no deadlock — each RoundTrip either completes or returns an error.
func TestCloseRacesInFlightRoundTrip(t *testing.T) {
	const n = 4
	mesh, err := NewTCPLoopbackWith(n, Config{RoundTimeout: 5 * time.Second, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	frames := make([][][]byte, n)
	for src := range frames {
		frames[src] = make([][]byte, n)
		for dst := range frames[src] {
			if dst != src {
				frames[src][dst] = big
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := mesh.RoundTrip(frames); err != nil {
				return // closed under us: the expected exit
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	mesh.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RoundTrip deadlocked against Close")
	}
}
