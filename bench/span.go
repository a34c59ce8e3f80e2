package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/obs"
)

// span is one timed interval of the traced run. Spans are kept in memory and
// written out when the workload ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was made
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans opened by the benchmark around its calls into each
// layer (begin/end) and the spans the engine and session already emit to a
// core.Options.Tracer that implements obs.SpanSink. A nil *tracer records
// nothing, so the untraced run takes the same code path without timestamps.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	rep      int
	spans    []span
	open     []int // ids of the spans opened by begin and not yet ended
	reps     int   // traced reps begun so far
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) parent() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return 0
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name,
		StartNS: int64(time.Since(t.t0)), Workload: t.workload, Rep: t.rep})
	t.open = append(t.open, id)
	return id
}

// beginRep opens the root span of the next traced rep; every span recorded
// until the next call carries its number.
func (t *tracer) beginRep(name string) int {
	t.mu.Lock()
	t.rep = t.reps
	t.reps++
	t.mu.Unlock()
	return t.begin(name)
}

// end closes the span and any span opened inside it that is still open.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := int64(time.Since(t.t0))
	for n := len(t.open); n > 0; n = len(t.open) {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[top-1].EndNS = now
		if top == id {
			break
		}
	}
	return t.spans[id-1].dur()
}

// Span implements obs.SpanSink: a finished span reported by the program
// becomes a child of the innermost open span, and adopts the siblings that
// ran inside its interval (engine.exchange arrives after the runtime.exchange
// span the decorator opened inside it).
func (t *tracer) Span(s obs.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := t.parent()
	start := int64(s.Start.Sub(t.t0))
	end := start + int64(s.Dur)
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].StartNS >= start; i-- {
		if c := &t.spans[i]; c.Parent == parent && c.EndNS != 0 && c.EndNS <= end {
			c.Parent = id
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: s.Name,
		StartNS: start, EndNS: end, Workload: t.workload, Rep: t.rep})
}

// StepDone and Event complete core.Tracer; the step and event streams are
// not part of the span tree.
func (t *tracer) StepDone(core.StepReport, cluster.Stats) {}
func (t *tracer) Event(string, string)                    {}

var _ core.Tracer = (*tracer)(nil)
var _ obs.SpanSink = (*tracer)(nil)

// total returns the summed duration of the spans called name under root
// (any depth); root 0 means everywhere.
func (t *tracer) total(name string, root int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name && t.under(s, root) {
			d += s.dur()
		}
	}
	return d
}

func (t *tracer) under(s span, root int) bool {
	for root != 0 && s.ID != root {
		if s.Parent == 0 {
			return false
		}
		s = t.spans[s.Parent-1]
	}
	return true
}

// layerOf names the module a span's self time is charged to.
func layerOf(name string) string {
	base, _, _ := strings.Cut(name, "[")
	switch {
	case strings.HasPrefix(base, "engine."), base == "step", base == "scores",
		base == "apply", base == "reconverge", base == "restart", strings.HasPrefix(base, "core."):
		return "core"
	case strings.HasPrefix(base, "session."), strings.HasPrefix(base, "anytime."):
		return "anytime"
	case base == "gen", base == "oracle", base == "verify":
		return "bench"
	}
	if layer, _, ok := strings.Cut(base, "."); ok {
		return layer
	}
	return "bench"
}

// selfTimes charges every span under root its duration minus the part its
// children cover, grouped by span name with indices dropped. The values sum
// to root's duration; root's own self time is the unattributed remainder.
func (t *tracer) selfTimes(root int) (rows map[string]time.Duration, wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		child[s.Parent] += s.dur()
	}
	rows = make(map[string]time.Duration)
	for _, s := range t.spans {
		if !t.under(s, root) {
			continue
		}
		name, _, _ := strings.Cut(s.Name, "[")
		if s.ID == root {
			name = "(unattributed)"
			wall = s.dur()
		}
		rows[name] += s.dur() - child[s.ID]
	}
	return rows, wall
}

// printSelfTimes prints the per-layer self-time table of one rep.
func (t *tracer) printSelfTimes(w io.Writer, root int) {
	rows, wall := t.selfTimes(root)
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	fmt.Fprintf(w, "self time of rep %q (wall %.4fs):\n", t.spans[root-1].Name, wall.Seconds())
	var total time.Duration
	for _, n := range names {
		layer := layerOf(n)
		if n == "(unattributed)" {
			layer = "-"
		}
		fmt.Fprintf(w, "  %-10s %-22s %10.4fs %6.2f%%\n", layer, n, rows[n].Seconds(), 100*rows[n].Seconds()/wall.Seconds())
		total += rows[n]
	}
	fmt.Fprintf(w, "  %-10s %-22s %10.4fs\n", "", "sum", total.Seconds())
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
