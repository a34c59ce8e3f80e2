package core

import (
	"encoding/binary"
	"fmt"

	"aacc/internal/graph"
)

// Wire codec for the recombination-phase payloads: a compact little-endian
// binary format for boundaryMsg, used when the engine runs on a real byte
// transport (Options.Wire). The encoded size is exactly what travels on the
// wire, so traffic accounting in wire mode is measured rather than modelled.
//
// Layout:
//
//	u32 rowCount
//	per row: i32 id, u8 kind
//	  kind 0 (full):  u32 n, n × i32 distances
//	  kind 1 (delta): u32 k, k × i32 columns, k × i32 values
//
// Row IDs, columns and distances are never negative, so Decode rejects a
// negative one; the engine checks the rest against its own ID space
// (Engine.checkMail).

// WireCodec encodes and decodes the engine's exchange payloads. It
// implements cluster.WireCodec.
type WireCodec struct{}

const (
	wireFull  = 0
	wireDelta = 1
)

// Encode implements cluster.WireCodec.
func (WireCodec) Encode(payload any) ([]byte, error) {
	msg, ok := payload.(*boundaryMsg)
	if !ok {
		return nil, fmt.Errorf("core: wire codec cannot encode %T", payload)
	}
	size := 4
	for i := range msg.ids {
		size += 4 + 1 + 4
		if msg.full[i] != nil {
			size += 4 * len(msg.full[i])
		} else {
			size += 8 * len(msg.cols[i])
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg.ids)))
	for i, id := range msg.ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		if full := msg.full[i]; full != nil {
			buf = append(buf, wireFull)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(full)))
			for _, d := range full {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
			}
		} else {
			buf = append(buf, wireDelta)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg.cols[i])))
			for _, c := range msg.cols[i] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
			}
			for _, v := range msg.vals[i] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		}
	}
	return buf, nil
}

// Decode implements cluster.WireCodec.
func (WireCodec) Decode(frame []byte) (any, error) {
	r := wireReader{buf: frame}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	msg := &boundaryMsg{}
	for i := uint32(0); i < count; i++ {
		id, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int32(id) < 0 {
			return nil, fmt.Errorf("core: wire frame has negative row id %d", int32(id))
		}
		kind, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch kind {
		case wireFull:
			n, err := r.u32()
			if err != nil {
				return nil, err
			}
			row, err := r.i32s(int(n))
			if err != nil {
				return nil, err
			}
			msg.add(graph.ID(id), row, nil, nil)
		case wireDelta:
			k, err := r.u32()
			if err != nil {
				return nil, err
			}
			cols, err := r.i32s(int(k))
			if err != nil {
				return nil, err
			}
			vals, err := r.i32s(int(k))
			if err != nil {
				return nil, err
			}
			msg.add(graph.ID(id), nil, cols, vals)
		default:
			return nil, fmt.Errorf("core: wire frame has unknown row kind %d", kind)
		}
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("core: wire frame has %d trailing bytes", len(r.buf)-r.off)
	}
	return msg, nil
}

type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) u8() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, fmt.Errorf("core: truncated wire frame")
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("core: truncated wire frame")
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) i32s(n int) ([]int32, error) {
	if n < 0 || r.off+4*n > len(r.buf) {
		return nil, fmt.Errorf("core: truncated wire frame")
	}
	out := make([]int32, n)
	for i := range out {
		if out[i] = int32(binary.LittleEndian.Uint32(r.buf[r.off:])); out[i] < 0 {
			return nil, fmt.Errorf("core: wire frame has negative entry %d", out[i])
		}
		r.off += 4
	}
	return out, nil
}
