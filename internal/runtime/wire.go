package runtime

import (
	"fmt"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/transport"
)

// Wire is the wire execution runtime: compute phases and broadcasts run on
// an embedded in-process cluster, but every Exchange payload is serialised
// by the codec and carried by the byte transport, so the accounted traffic
// is measured frame sizes rather than caller estimates. Any
// cluster.WireCodec composes with any transport.Transport; the default pair
// (core.WireCodec over transport.TCPLoopback) stands in for the paper's
// MPI-over-Ethernet.
type Wire struct {
	*cluster.Cluster
	codec cluster.WireCodec
	tr    transport.Transport
}

// NewWire composes a wire runtime from a codec and a transport. The runtime
// takes ownership of tr; Close tears it down.
func NewWire(p int, model logp.Params, codec cluster.WireCodec, tr transport.Transport) *Wire {
	if codec == nil || tr == nil {
		panic("runtime: NewWire needs a codec and a transport")
	}
	return &Wire{Cluster: cluster.New(p, model), codec: codec, tr: tr}
}

// Exchange implements Runtime over the byte transport: the shared wire
// exchange over the full processor range.
func (w *Wire) Exchange(out [][]*cluster.Mail) ([][]*cluster.Mail, error) {
	in, sizes, err := exchangeRange(w.Cluster, w.codec, 0, w.P(), out, w.tr.RoundTrip)
	if err != nil {
		return nil, err
	}
	w.AccountExchange(sizes)
	return in, nil
}

// exchangeRange is the wire exchange both wire runtimes share: encode rows
// [lo,hi) of out, carry the frames with roundTrip, decode the cells destined
// to [lo,hi). Wire passes the full range; Remote its resident slice — the
// rest of the matrix lives in the other processes. It returns the received
// mail indexed [dst][src] and the measured frame sizes [src][dst] — real
// serialised bytes, which the caller feeds to AccountExchange once the round
// commits. Encode/decode time is charged to c as compute. Transport and codec
// failures surface as errors: the round is reported undelivered, no partial
// result is returned and no traffic is accounted (its bytes never arrived);
// roundTrip is not called after an encode failure. Shape violations remain
// panics: they are caller bugs, not wire weather.
func exchangeRange(c *cluster.Cluster, codec cluster.WireCodec, lo, hi int, out [][]*cluster.Mail,
	roundTrip func(frames [][][]byte) ([][][]byte, error)) (in [][]*cluster.Mail, sizes [][]int, err error) {
	p := c.P()
	if len(out) != p {
		panic(fmt.Sprintf("runtime: Exchange needs %d rows, got %d", p, len(out)))
	}
	start := time.Now()
	defer func() { c.AccountCompute(time.Since(start)) }()
	frames := make([][][]byte, p)
	sizes = make([][]int, p)
	for src := lo; src < hi; src++ {
		frames[src] = make([][]byte, p)
		sizes[src] = make([]int, p)
		if out[src] == nil {
			continue
		}
		if len(out[src]) != p {
			panic(fmt.Sprintf("runtime: Exchange row %d has %d columns, want %d", src, len(out[src]), p))
		}
		for dst, m := range out[src] {
			if m == nil || src == dst {
				continue
			}
			frame, err := codec.Encode(m.Payload)
			if err != nil {
				return nil, nil, fmt.Errorf("runtime: encoding %d->%d: %w", src, dst, err)
			}
			frames[src][dst] = frame
			sizes[src][dst] = len(frame)
		}
	}
	inFrames, err := roundTrip(frames)
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: transport round trip: %w", err)
	}
	in = make([][]*cluster.Mail, p)
	for dst := range in {
		in[dst] = make([]*cluster.Mail, p)
	}
	for dst := lo; dst < hi; dst++ {
		for src, frame := range inFrames[dst] {
			if frame == nil || src == dst {
				continue
			}
			payload, err := codec.Decode(frame)
			if err != nil {
				return nil, nil, fmt.Errorf("runtime: decoding %d->%d: %w", src, dst, err)
			}
			in[dst][src] = &cluster.Mail{Payload: payload, Bytes: len(frame)}
		}
	}
	return in, sizes, nil
}

// SetObs mirrors the embedded cluster's accounting into reg and, when the
// transport is itself observable (TCPLoopback is), its wire-level counters
// too — per-peer failures, round counts.
func (w *Wire) SetObs(reg *obs.Registry) {
	w.Cluster.SetObs(reg)
	if ob, ok := w.tr.(Observable); ok {
		ob.SetObs(reg)
	}
}

// Close tears the transport down.
func (w *Wire) Close() error { return w.tr.Close() }
