// Package runtime defines the pluggable execution-runtime layer the engine
// programs against. A Runtime is the machine an analysis runs on: it
// executes per-processor compute phases, carries the recombination
// exchanges and broadcasts, and accounts every byte and second into one
// shared Stats schema, so sim-mode and wire-mode analyses emit identical
// observability records.
//
// Three implementations ship today:
//
//   - the in-process reference-passing cluster (runtime.Sim, the default):
//     payloads are handed over by pointer and the LogP model prices the
//     declared sizes (internal/cluster);
//   - the wire runtime (runtime.WireTCP): every exchange payload is
//     serialised by a cluster.WireCodec and carried by a
//     transport.Transport — by default a real TCP loopback mesh — so
//     traffic accounting reflects measured frame bytes;
//   - the multi-process runtime (runtime.Remote): one worker process hosts a
//     contiguous slice of the processors and exchanges over a worker mesh.
//
// Wire and Remote compose the same in-process cluster and share one
// implementation of each collective: the exchange is one encode → round-trip
// → decode helper over a processor range (exchangeRange; Wire passes the full
// range, Remote its resident slice, a coordinator sequence number and a
// commit barrier), and compute phases are cluster.Cluster's pool loop over
// that range.
//
// Selection happens at construction (core.Options.Runtime or a custom
// factory); nothing mutates a runtime into a different mode after it is
// built.
package runtime

import (
	"fmt"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/logp"
	"aacc/internal/obs"
	"aacc/internal/transport"
)

// Runtime is the execution substrate of one analysis. Implementations must
// deliver Exchange and Broadcast with the exact semantics of
// cluster.Cluster (personalised all-to-all indexed [src][dst] -> [dst][src];
// broadcast by shared memory) and must account all work into the shared
// cluster.Stats schema.
type Runtime interface {
	// P returns the number of simulated processors.
	P() int
	// Model returns the LogP parameters pricing this runtime's network.
	Model() logp.Params
	// Parallel runs fn(proc) for every processor and waits for all to
	// finish (a BSP superstep's compute phase).
	Parallel(fn func(proc int))
	// Exchange performs one personalised all-to-all: out[src][dst] is the
	// mail from src to dst (nil = nothing); the result is indexed
	// [dst][src]. A non-nil error means the round was not delivered (the
	// in-memory runtime never fails; wire runtimes can, after exhausting
	// their transport's retry budget): no partial results are returned and
	// the caller must treat the step as not having happened.
	Exchange(out [][]*cluster.Mail) ([][]*cluster.Mail, error)
	// Broadcast accounts a tree broadcast from root and returns the payload
	// for the caller to distribute.
	Broadcast(root int, m *cluster.Mail) *cluster.Mail
	// Stats snapshots the accounting counters.
	Stats() cluster.Stats
	// ResetStats zeroes the accounting counters.
	ResetStats()
	// AccountCompute adds measured compute time spent outside Parallel.
	AccountCompute(d time.Duration)
	// AccountPointToPoint prices one point-to-point message outside an
	// Exchange.
	AccountPointToPoint(bytes int)
	// Close releases any external resources (sockets, processes). The
	// runtime is unusable afterwards.
	Close() error
}

// Observable is implemented by runtimes (and the transports they compose)
// that can mirror their accounting into a live metrics registry. The engine
// probes its runtime for this interface when core.Options.Obs is set; both
// built-in runtimes implement it. Custom backends may ignore it — the
// engine-level metrics still work without runtime cooperation.
type Observable interface {
	SetObs(reg *obs.Registry)
}

// Kind names a built-in runtime implementation.
type Kind string

const (
	// Sim is the in-process reference-passing cluster (the default).
	Sim Kind = "sim"
	// WireTCP carries every exchange over a TCP loopback mesh with the
	// binary wire codec.
	WireTCP Kind = "tcp"
)

// ParseKind resolves a user-facing runtime name. The empty string means
// Sim.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "sim":
		return Sim, nil
	case "tcp":
		return WireTCP, nil
	default:
		return "", fmt.Errorf("runtime: unknown runtime %q (want sim or tcp)", s)
	}
}

// NewSim returns the in-process reference-passing runtime.
func NewSim(p int, model logp.Params) Runtime {
	return cluster.New(p, model)
}

// New builds the named runtime. codec is required by wire kinds (it
// serialises the engine's exchange payloads) and ignored by Sim.
func New(kind Kind, p int, model logp.Params, codec cluster.WireCodec) (Runtime, error) {
	switch kind {
	case "", Sim:
		return NewSim(p, model), nil
	case WireTCP:
		if codec == nil {
			return nil, fmt.Errorf("runtime: the %s runtime needs a wire codec", kind)
		}
		mesh, err := transport.NewTCPLoopback(p)
		if err != nil {
			return nil, fmt.Errorf("runtime: building wire mesh: %w", err)
		}
		return NewWire(p, model, codec, mesh), nil
	default:
		return nil, fmt.Errorf("runtime: unknown runtime kind %q", kind)
	}
}
