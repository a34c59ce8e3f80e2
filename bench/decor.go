package main

import (
	"time"

	"aacc/internal/cluster"
	"aacc/internal/runtime"
	"aacc/internal/transport"
)

// timedRuntime wraps the two calls the engine makes on its runtime every
// step, through the core.Options.RuntimeFactory seam.
type timedRuntime struct {
	runtime.Runtime
	tr       *tracer
	exchange time.Duration
	parallel time.Duration
	rounds   int
}

func (t *timedRuntime) Exchange(out [][]*cluster.Mail) ([][]*cluster.Mail, error) {
	id := t.tr.begin("runtime.exchange")
	in, err := t.Runtime.Exchange(out)
	t.exchange += t.tr.end(id)
	t.rounds++
	return in, err
}

func (t *timedRuntime) Parallel(fn func(proc int)) {
	start := time.Now()
	t.Runtime.Parallel(fn)
	t.parallel += time.Since(start)
}

// timedTransport wraps Transport.RoundTrip, the seam runtime.NewWire offers.
type timedTransport struct {
	transport.Transport
	tr        *tracer
	roundtrip time.Duration
	frames    int
	bytes     int
}

func (t *timedTransport) RoundTrip(frames [][][]byte) ([][][]byte, error) {
	for _, row := range frames {
		for _, f := range row {
			if f != nil {
				t.frames++
				t.bytes += len(f)
			}
		}
	}
	id := t.tr.begin("transport.roundtrip")
	in, err := t.Transport.RoundTrip(frames)
	t.roundtrip += t.tr.end(id)
	return in, err
}
