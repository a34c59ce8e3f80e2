package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Control-stream record helpers. The coordinator protocol frames its
// messages exactly like exchange records (magic, sequence, size, CRC) but
// over a single ordered connection: no terminators, no stale-round drains —
// any out-of-sequence or corrupt record is a protocol error, because nothing
// legitimate can reorder a lone TCP stream.

// WriteRecord frames one message with sequence number seq onto conn.
func WriteRecord(conn net.Conn, seq uint32, payload []byte) error {
	return writeFrame(conn, seq, nil, payload)
}

// ReadRecord reads exactly one framed record from br and checks it carries
// sequence number want. maxFrame caps the accepted payload size (<=0 selects
// the default).
func ReadRecord(br *bufio.Reader, want uint32, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = Config{}.Normalize().MaxFrame
	}
	var hdr [recordHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != recordMagic {
		return nil, fmt.Errorf("transport: control record with bad magic %#x", m)
	}
	seq := binary.LittleEndian.Uint32(hdr[4:8])
	size := binary.LittleEndian.Uint32(hdr[8:12])
	crc := binary.LittleEndian.Uint32(hdr[12:16])
	if size == terminator {
		return nil, fmt.Errorf("transport: unexpected terminator on control stream (record %d)", seq)
	}
	if int64(size) > int64(maxFrame) {
		return nil, fmt.Errorf("transport: control record of %d bytes exceeds frame cap %d", size, maxFrame)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	sum := crc32.Update(0, crc32.IEEETable, hdr[:12])
	if crc32.Update(sum, crc32.IEEETable, payload) != crc {
		return nil, fmt.Errorf("transport: control record %d fails its crc", seq)
	}
	if seq != want {
		return nil, fmt.Errorf("transport: control record seq %d, want %d", seq, want)
	}
	return payload, nil
}
