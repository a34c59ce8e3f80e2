package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Versioned hello handshake. Every connection in a mesh (loopback or
// multi-process) opens with one fixed-size hello frame and a two-byte
// acknowledgement, so a binary speaking a different protocol revision fails
// fast with a clear error instead of degenerating into CRC noise and retry
// storms once framed rounds start flowing.
//
//	hello:  u32 magic 0xAACC4E10 | u8 version | u32 rank
//	ack:    u8 status            | u8 acceptor's version
const (
	helloMagic = 0xAACC4E10
	helloLen   = 9
	ackLen     = 2

	// ProtocolVersion is the wire protocol revision this binary speaks. It
	// covers the hello itself, the record framing, the exchange payload
	// codec and the coordinator control messages; bump it whenever any of
	// those change incompatibly. v2: mMutate carries a batch of ops
	// (mutateBody.Ops) instead of a single op, and mResult gained FailedOp.
	// v3: ready/result replies piggyback federated worker metric snapshots
	// and per-command spans (resultBody.Metrics/Spans). v4: a wire op is
	// the image of one core.Mutation (numeric kind; a weight set carries its
	// edges, so a multi-edge set stays one atomic op).
	ProtocolVersion = 4
)

// Hello ack statuses.
const (
	helloOK         = 0
	helloBadVersion = 1
	helloBadRank    = 2
)

func putHello(buf []byte, rank int) {
	binary.LittleEndian.PutUint32(buf[0:4], helloMagic)
	buf[4] = ProtocolVersion
	binary.LittleEndian.PutUint32(buf[5:9], uint32(rank))
}

// DialHello identifies the dialing end of conn as rank and waits for the
// acceptor's verdict. All I/O runs under deadline. A version mismatch comes
// back as an error naming both revisions — the caller should give up, not
// retry.
func DialHello(conn net.Conn, rank int, deadline time.Time) error {
	var hello [helloLen]byte
	putHello(hello[:], rank)
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(hello[:]); err != nil {
		return fmt.Errorf("transport: hello send: %w", err)
	}
	var ack [ackLen]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("transport: hello ack: %w", err)
	}
	switch ack[0] {
	case helloOK:
		return nil
	case helloBadVersion:
		return fmt.Errorf("transport: protocol version mismatch: this binary speaks v%d, peer speaks v%d — rebuild so both ends run the same version", ProtocolVersion, ack[1])
	case helloBadRank:
		return fmt.Errorf("transport: peer rejected rank %d", rank)
	default:
		return fmt.Errorf("transport: hello rejected with unknown status %d", ack[0])
	}
}

// errBadHello marks hellos that should be silently dropped by accept loops
// (wrong magic: a port scan or stray client, not a protocol peer).
type errBadHello struct{ err error }

func (e errBadHello) Error() string { return e.err.Error() }
func (e errBadHello) Unwrap() error { return e.err }

// AcceptHello reads and acknowledges one hello on the accepting end of conn.
// n bounds the acceptable rank range ([0,n); n <= 0 accepts any rank). The
// hello read runs under deadline. On success the ok ack has been written and
// the rank is returned; on failure the appropriate reject ack (if any) has
// been written and the caller should close the connection. Version
// mismatches are acked with this binary's version so the dialer can report
// both revisions.
func AcceptHello(conn net.Conn, n int, deadline time.Time) (int, error) {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	var hello [helloLen]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return -1, fmt.Errorf("transport: hello read: %w", err)
	}
	if binary.LittleEndian.Uint32(hello[0:4]) != helloMagic {
		return -1, errBadHello{fmt.Errorf("transport: hello with bad magic %#x", binary.LittleEndian.Uint32(hello[0:4]))}
	}
	if v := hello[4]; v != ProtocolVersion {
		conn.Write([]byte{helloBadVersion, ProtocolVersion})
		return -1, fmt.Errorf("transport: protocol version mismatch: this binary speaks v%d, dialer speaks v%d", ProtocolVersion, v)
	}
	rank := int(int32(binary.LittleEndian.Uint32(hello[5:9])))
	if n > 0 && (rank < 0 || rank >= n) {
		conn.Write([]byte{helloBadRank, ProtocolVersion})
		return -1, fmt.Errorf("transport: hello with out-of-range rank %d (mesh size %d)", rank, n)
	}
	if _, err := conn.Write([]byte{helloOK, ProtocolVersion}); err != nil {
		return -1, fmt.Errorf("transport: hello ack send: %w", err)
	}
	return rank, nil
}
