package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// DefRecorderSize is the ring capacity of the flight recorder attached to
// every NewRegistry. 512 events is hours of steady-state operation (events
// are exceptional: faults, degradations, membership changes) while still
// bounding memory to a few tens of KB.
const DefRecorderSize = 512

// Event is one entry in the flight recorder: a structured, timestamped
// record of something operationally notable — a degradation, a wire retry,
// a worker expulsion or rejoin, a committed-prefix batch failure, a
// processor failure, a budget/deadline trip.
type Event struct {
	// Seq is the event's position in the recorder's total history
	// (1-based, monotonic). Gaps between the first buffered Seq and 1
	// mean older events were overwritten.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Component names the emitting layer: "core", "session", "transport",
	// "coordinator", "worker".
	Component string `json:"component"`
	// Kind is a stable short tag ("degraded", "wire-retry", "worker-lost",
	// "worker-rejoin", "batch-error", "step-failure", "budget-trip", ...).
	Kind string `json:"kind"`
	// Trace is the correlation ID linking the event to a span: the dist
	// command/round Seq in cluster mode, the engine step otherwise.
	// 0 means "no correlated trace".
	Trace uint64 `json:"trace,omitempty"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Recorder is a fixed-size ring buffer of Events — the flight recorder.
// Record takes one short mutex-protected critical section (a copy into a
// preallocated slot); it never allocates after construction apart from the
// strings the caller already built. All methods are nil-receiver safe so
// components can record unconditionally.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded
}

// NewRecorder returns a recorder retaining the last size events
// (DefRecorderSize if size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefRecorderSize
	}
	return &Recorder{buf: make([]Event, size)}
}

// Record appends one event, overwriting the oldest if the ring is full.
func (r *Recorder) Record(component, kind string, trace uint64, detail string) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.next++
	r.buf[(r.next-1)%uint64(len(r.buf))] = Event{
		Seq:       r.next,
		Time:      now,
		Component: component,
		Kind:      kind,
		Trace:     trace,
		Detail:    detail,
	}
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (0 on nil).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events returns the retained events, oldest first. Nil-safe (returns nil).
func (r *Recorder) Events() []Event {
	return r.Tail(-1)
}

// Tail returns the most recent n retained events, oldest first (all of
// them if n < 0 or n exceeds the retained count). Nil-safe.
func (r *Recorder) Tail(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	kept := r.next
	if kept > size {
		kept = size
	}
	if n >= 0 && uint64(n) < kept {
		kept = uint64(n)
	}
	out := make([]Event, 0, kept)
	for i := r.next - kept; i < r.next; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}

// EventsHandler serves the recorder's contents as a JSON array, oldest
// first — the /debug/events endpoint. A nil recorder serves an empty array.
func EventsHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		evs := r.Events()
		if evs == nil {
			evs = []Event{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		// Write errors mean the client went away; nothing useful to do.
		_ = enc.Encode(evs)
	})
}
