package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed unit of work in a distributed trace. Spans from every
// process in a deployment share a correlation key (Trace) so a single
// command can be followed causally: session enqueue → coalesce → batch
// apply → per-worker collect/exchange/install-relax → settle → epoch
// publish.
//
// The Span type lives in obs because it is shared by layers on both sides of
// the import graph: core and anytime emit spans, dist carries them over the
// wire, and the JSONL writer below makes them durable.
type Span struct {
	// Trace is the correlation key. In cluster mode it is the dist
	// command/round Seq (shared coordinator↔workers); in single-process
	// mode it is the engine step count. 0 means unkeyed.
	Trace uint64 `json:"trace"`
	// Component names the emitting process/layer: "engine", "session",
	// "coordinator", "worker.3" (a worker span relayed by the
	// coordinator carries the worker's index).
	Component string `json:"component"`
	// Name is the operation: "engine.step", "engine.apply", "worker.step",
	// "coord.step", "session.publish", ...
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur"`
	// Detail optionally elaborates ("14 ops as 3 units").
	Detail string `json:"detail,omitempty"`
	// Err is the failure message if the spanned operation failed.
	Err string `json:"err,omitempty"`
}

// SpanSink consumes spans: the timeline stream (core.Tracer is this
// interface). Emitters check the sink against nil once and skip all span
// bookkeeping (including timestamps) when it is, keeping the tracing-disabled
// path inside the obs overhead budget.
type SpanSink interface{ Span(Span) }

// JSONL is the span sink behind aacc -trace: one JSON object per line,
//
//	{"type":"span","trace":41,"component":"engine","name":"engine.step","start":"…","dur_ms":1.5,"detail":"…"}
//
// with detail and err omitted when empty. Safe for concurrent use; the first
// write error sticks and is reported by Err.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL span writer on w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{enc: json.NewEncoder(w)} }

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

type jsonSpan struct {
	Type      string  `json:"type"`
	Trace     uint64  `json:"trace"`
	Component string  `json:"component"`
	Name      string  `json:"name"`
	Start     string  `json:"start"`
	DurMS     float64 `json:"dur_ms"`
	Detail    string  `json:"detail,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// Span implements SpanSink: one {"type":"span",...} line per span.
func (j *JSONL) Span(sp Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(jsonSpan{
		Type:      "span",
		Trace:     sp.Trace,
		Component: sp.Component,
		Name:      sp.Name,
		Start:     sp.Start.UTC().Format(time.RFC3339Nano),
		DurMS:     float64(sp.Dur) / float64(time.Millisecond),
		Detail:    sp.Detail,
		Err:       sp.Err,
	})
}
