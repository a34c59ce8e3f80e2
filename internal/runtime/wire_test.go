package runtime

import (
	"fmt"
	"testing"

	"aacc/internal/cluster"
	"aacc/internal/logp"
)

func model(p int) logp.Params {
	return logp.Params{Latency: 1e-3, Overhead: 1e-4, Gap: 1e-9, P: p, MaxMsg: 1 << 20}
}

// chanTransport is an in-process Transport double: frames are transposed
// synchronously. It lets the wire path be tested without sockets.
type chanTransport struct {
	n      int
	rounds int
	fail   bool
	closed int
}

func (c *chanTransport) RoundTrip(frames [][][]byte) ([][][]byte, error) {
	if c.fail {
		return nil, fmt.Errorf("injected transport failure")
	}
	c.rounds++
	in := make([][][]byte, c.n)
	for dst := range in {
		in[dst] = make([][]byte, c.n)
	}
	for src := range frames {
		for dst, f := range frames[src] {
			if f != nil {
				in[dst][src] = f
			}
		}
	}
	return in, nil
}

func (c *chanTransport) Close() error {
	c.closed++
	return nil
}

// oneWorkerMesh adapts the double to RemoteTransport for a lone worker
// hosting every processor: the sequence number has no peer to agree with.
type oneWorkerMesh struct{ *chanTransport }

func (m oneWorkerMesh) RoundTrip(_ uint32, frames [][][]byte) ([][][]byte, error) {
	return m.chanTransport.RoundTrip(frames)
}

// AllGather is unused by Exchange.
func (oneWorkerMesh) AllGather(uint32, []byte) ([][]byte, error) { return nil, nil }

// stringCodec encodes string payloads for the double. The payload "!decode"
// encodes fine and fails to decode.
type stringCodec struct{}

func (stringCodec) Encode(p any) ([]byte, error) {
	s, ok := p.(string)
	if !ok {
		return nil, fmt.Errorf("not a string: %T", p)
	}
	return []byte(s), nil
}

func (stringCodec) Decode(frame []byte) (any, error) {
	if string(frame) == "!decode" {
		return nil, fmt.Errorf("injected decode failure")
	}
	return string(frame), nil
}

// TestWireEqualsRemoteOverFullRange states the contract of the exchange
// helper both wire runtimes share: over the full processor range Wire and
// Remote deliver the same payloads and account the same traffic, and a failed
// round — encode, decode or transport — returns no partial result and charges
// no traffic on either.
func TestWireEqualsRemoteOverFullRange(t *testing.T) {
	const p = 3
	for _, tc := range []struct {
		name     string
		poison   any  // replaces the 0->2 payload when non-nil
		failTr   bool // the transport fails the round
		wantFail bool
	}{
		{name: "delivered"},
		{name: "encode error", poison: 42, wantFail: true},
		{name: "decode error", poison: "!decode", wantFail: true},
		{name: "transport error", failTr: true, wantFail: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := make([][]*cluster.Mail, p)
			for src := range out {
				out[src] = make([]*cluster.Mail, p)
				for dst := range out[src] {
					if src != dst && (src+dst)%2 == 0 || src == 1 {
						out[src][dst] = &cluster.Mail{Payload: fmt.Sprintf("%d->%d", src, dst), Bytes: 999}
					}
				}
			}
			if tc.poison != nil {
				out[0][2].Payload = tc.poison
			}
			wire := NewWire(p, model(p), stringCodec{}, &chanTransport{n: p, fail: tc.failTr})
			remote, err := NewRemote(p, 0, p, model(p), stringCodec{}, oneWorkerMesh{&chanTransport{n: p, fail: tc.failTr}})
			if err != nil {
				t.Fatal(err)
			}
			results := map[string][][]*cluster.Mail{}
			for name, rt := range map[string]Runtime{"wire": wire, "remote": remote} {
				in, err := rt.Exchange(out)
				if tc.wantFail {
					if err == nil || in != nil {
						t.Fatalf("%s: failed round returned in=%v err=%v, want nil result and an error", name, in, err)
					}
					if st := rt.Stats(); st.BytesSent != 0 || st.MessagesSent != 0 || st.ExchangeRounds != 0 {
						t.Fatalf("%s: failed round charged traffic: %+v", name, st)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				results[name] = in
			}
			if tc.wantFail {
				return
			}
			for dst := 0; dst < p; dst++ {
				for src := 0; src < p; src++ {
					w, r := results["wire"][dst][src], results["remote"][dst][src]
					if (w == nil) != (r == nil) || (out[src][dst] == nil || src == dst) != (w == nil) {
						t.Fatalf("cell %d->%d: wire %v, remote %v, sent %v", src, dst, w, r, out[src][dst])
					}
					if w != nil && (*w != *r || w.Payload != out[src][dst].Payload) {
						t.Fatalf("cell %d->%d: wire %+v, remote %+v, sent %q", src, dst, *w, *r, out[src][dst].Payload)
					}
				}
			}
			ws, rs := wire.Stats(), remote.Stats()
			if ws.BytesSent != rs.BytesSent || ws.MessagesSent != rs.MessagesSent || ws.ExchangeRounds != rs.ExchangeRounds {
				t.Fatalf("stats differ: wire %+v, remote %+v", ws, rs)
			}
			if ws.MessagesSent == 0 || ws.ExchangeRounds != 1 {
				t.Fatalf("delivered round not accounted: %+v", ws)
			}
		})
	}
}

func TestWireExchangeRoutesAndAccounts(t *testing.T) {
	tr := &chanTransport{n: 3}
	w := NewWire(3, model(3), stringCodec{}, tr)
	out := make([][]*cluster.Mail, 3)
	for i := range out {
		out[i] = make([]*cluster.Mail, 3)
	}
	out[0][2] = &cluster.Mail{Payload: "hello", Bytes: 999} // Bytes estimate ignored in wire mode
	out[1][0] = &cluster.Mail{Payload: "yo", Bytes: 999}
	in, err := w.Exchange(out)
	if err != nil {
		t.Fatal(err)
	}
	if in[2][0] == nil || in[2][0].Payload != "hello" {
		t.Fatalf("payload lost: %+v", in[2][0])
	}
	if in[2][0].Bytes != 5 {
		t.Fatalf("wire bytes %d, want measured 5", in[2][0].Bytes)
	}
	st := w.Stats()
	if st.BytesSent != 5+2 {
		t.Fatalf("accounted %d bytes, want 7 (measured frames)", st.BytesSent)
	}
	if st.MessagesSent != 2 || st.ExchangeRounds != 1 {
		t.Fatalf("stats %+v", st)
	}
	if tr.rounds != 1 {
		t.Fatalf("transport rounds %d", tr.rounds)
	}
}

func TestWireExchangeErrorsOnTransportFailure(t *testing.T) {
	w := NewWire(2, model(2), stringCodec{}, &chanTransport{n: 2, fail: true})
	out := [][]*cluster.Mail{{nil, {Payload: "x", Bytes: 1}}, {nil, nil}}
	in, err := w.Exchange(out)
	if err == nil {
		t.Fatal("expected error on transport failure")
	}
	if in != nil {
		t.Fatal("failed exchange returned partial results")
	}
	if st := w.Stats(); st.ExchangeRounds != 0 || st.BytesSent != 0 {
		t.Fatalf("failed round folded into traffic accounting: %+v", st)
	}
}

func TestWireExchangeErrorsOnCodecFailure(t *testing.T) {
	w := NewWire(2, model(2), stringCodec{}, &chanTransport{n: 2})
	out := [][]*cluster.Mail{{nil, {Payload: 42, Bytes: 1}}, {nil, nil}}
	if _, err := w.Exchange(out); err == nil {
		t.Fatal("expected error on codec failure")
	}
}

func TestNewWireValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil transport")
		}
	}()
	NewWire(2, model(2), nil, nil)
}

func TestWireCloseClosesTransport(t *testing.T) {
	tr := &chanTransport{n: 2}
	w := NewWire(2, model(2), stringCodec{}, tr)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.closed != 1 {
		t.Fatalf("transport closed %d times, want 1", tr.closed)
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", Sim, false},
		{"sim", Sim, false},
		{"mem", Sim, false},
		{"tcp", WireTCP, false},
		{"wire", WireTCP, false},
		{"mpi", "", true},
	} {
		got, err := ParseKind(tc.in)
		if tc.err != (err != nil) || got != tc.want {
			t.Fatalf("ParseKind(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestNewSimIsACluster(t *testing.T) {
	rt, err := New(Sim, 4, model(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.P() != 4 {
		t.Fatalf("P = %d", rt.P())
	}
	ran := make([]bool, 4)
	rt.Parallel(func(p int) { ran[p] = true })
	for p, ok := range ran {
		if !ok {
			t.Fatalf("proc %d never ran", p)
		}
	}
}

func TestNewWireKindNeedsCodec(t *testing.T) {
	if _, err := New(WireTCP, 2, model(2), nil); err == nil {
		t.Fatal("expected error for wire runtime without codec")
	}
}
