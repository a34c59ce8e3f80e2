package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
)

func runTraced(t *testing.T, tr core.Tracer) {
	t.Helper()
	g := gen.BarabasiAlbert(80, 2, 3, gen.Config{})
	e, err := core.New(g, core.Options{P: 4, Seed: 3, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	add := core.EdgeAdd(graph.EdgeTriple{U: 0, V: 70, W: 1})
	if err := e.ApplyBatch(&core.Batch{Ops: []core.Mutation{add}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCSVTrace(t *testing.T) {
	var buf bytes.Buffer
	c := NewCSV(&buf)
	runTraced(t, c)
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "step,messages") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "# edge-add: 1 edges applied") {
		t.Fatalf("missing event comment:\n%s", out)
	}
	// Last data row must be converged.
	last := lines[len(lines)-1]
	if !strings.Contains(last, "true") {
		t.Fatalf("final row not converged: %s", last)
	}
}

func TestJSONLTrace(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	runTraced(t, j)
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	var steps, events, spans int
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		switch m["type"] {
		case "step":
			steps++
			if _, ok := m["sim_compute_ms"].(float64); !ok {
				t.Fatalf("step without timing: %v", m)
			}
		case "event":
			events++
		case "span":
			spans++
			if _, ok := m["dur_ms"].(float64); !ok {
				t.Fatalf("span without duration: %v", m)
			}
			if _, ok := m["trace"].(float64); !ok {
				t.Fatalf("span without trace key: %v", m)
			}
		default:
			t.Fatalf("unknown record %v", m)
		}
	}
	if steps < 2 || events < 1 || spans < 1 {
		t.Fatalf("steps=%d events=%d spans=%d", steps, events, spans)
	}
}

func TestMultiAndCollector(t *testing.T) {
	var buf bytes.Buffer
	col := &Collector{}
	runTraced(t, Multi{NewCSV(&buf), col})
	if len(col.Steps) < 2 {
		t.Fatalf("collector has %d steps", len(col.Steps))
	}
	if len(col.Events) == 0 || !strings.HasPrefix(col.Events[0], "edge-add") {
		t.Fatalf("collector events %v", col.Events)
	}
	if buf.Len() == 0 {
		t.Fatal("multi did not reach the CSV sink")
	}
	// Steps are sequential.
	for i := 1; i < len(col.Steps); i++ {
		if col.Steps[i].Step != col.Steps[i-1].Step+1 {
			t.Fatalf("non-sequential steps: %v", col.Steps)
		}
	}
	// Stats travel with their reports, and cumulative counters never shrink.
	if len(col.Stats) != len(col.Steps) {
		t.Fatalf("collector has %d stats for %d steps", len(col.Stats), len(col.Steps))
	}
	for i := 1; i < len(col.Stats); i++ {
		if col.Stats[i].BytesSent < col.Stats[i-1].BytesSent {
			t.Fatalf("bytes regressed at step %d: %d < %d", i, col.Stats[i].BytesSent, col.Stats[i-1].BytesSent)
		}
	}
}

// errWriter fails every write, to poison a sink.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestMultiErrAggregation(t *testing.T) {
	var ok bytes.Buffer
	healthy := NewCSV(&ok)
	broken := NewJSONL(errWriter{})
	col := &Collector{} // no Err method: must be skipped, not crash
	m := Multi{col, healthy, broken}

	if err := m.Err(); err != nil {
		t.Fatalf("Err before any writes: %v", err)
	}
	m.Event("edge-add", "1 edges applied")
	err := m.Err()
	if err == nil {
		t.Fatal("Err did not surface the broken sink's failure")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("unexpected error: %v", err)
	}
	if healthy.Err() != nil {
		t.Fatalf("healthy sink poisoned: %v", healthy.Err())
	}
}

func TestMetricsSink(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	runTraced(t, m)

	steps := reg.Counter("aacc_trace_steps_total", "").Value()
	if steps < 2 {
		t.Fatalf("steps_total = %v, want >= 2", steps)
	}
	if reg.Counter("aacc_trace_rows_sent_total", "").Value() == 0 {
		t.Error("rows_sent_total stayed 0")
	}
	if reg.Counter("aacc_trace_messages_total", "").Value() == 0 {
		t.Error("messages_total stayed 0")
	}
	if reg.Gauge("aacc_trace_bytes_sent", "").Value() == 0 {
		t.Error("bytes_sent gauge stayed 0")
	}
	if got := reg.Counter("aacc_trace_events_total", "", obs.L("kind", "edge-add")).Value(); got != 1 {
		t.Errorf("events_total{kind=edge-add} = %v, want 1", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `aacc_trace_events_total{kind="edge-add"} 1`) {
		t.Errorf("exposition missing labelled event counter:\n%s", sb.String())
	}
}

func TestTracerSeesAllDynamicKinds(t *testing.T) {
	col := &Collector{}
	g := gen.BarabasiAlbert(80, 2, 5, gen.Config{})
	e, err := core.New(g, core.Options{P: 4, Seed: 5, Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	batch := &core.VertexBatch{Count: 1, External: []core.AttachEdge{{New: 0, To: 4, W: 1}}}
	if err := e.ApplyBatch(&core.Batch{Ops: []core.Mutation{
		core.EdgeAdd(graph.EdgeTriple{U: 0, V: 60, W: 1}),
		core.EdgeDelete([2]graph.ID{0, 60}),
		core.VertexAdd(batch, &core.RoundRobinPS{}),
		core.RepartitionOp(nil),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailProcessor(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"edge-add", "edge-delete", "vertex-add", "repartition", "failure"}
	for _, kind := range want {
		found := false
		for _, ev := range col.Events {
			if strings.HasPrefix(ev, kind) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("missing %q in %v", kind, col.Events)
		}
	}
}

// TestSessionKindsRender: the session-layer event kinds flow through each
// sink with their expected shapes (CSV comment line, JSONL event object).
func TestSessionKindsRender(t *testing.T) {
	var csvBuf, jsonlBuf bytes.Buffer
	m := Multi{NewCSV(&csvBuf), NewJSONL(&jsonlBuf)}
	for _, kind := range []string{KindEpoch, KindMutation, KindQuery} {
		m.Event(kind, "details for "+kind)
	}
	for _, kind := range []string{"epoch", "mutation", "query"} {
		if !strings.Contains(csvBuf.String(), "# "+kind+": details for "+kind) {
			t.Fatalf("CSV missing %q event:\n%s", kind, csvBuf.String())
		}
	}
	dec := json.NewDecoder(&jsonlBuf)
	seen := map[string]bool{}
	for dec.More() {
		var ev struct {
			Type string `json:"type"`
			Kind string `json:"kind"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != "event" {
			t.Fatalf("unexpected type %q", ev.Type)
		}
		seen[ev.Kind] = true
	}
	for _, kind := range []string{KindEpoch, KindMutation, KindQuery} {
		if !seen[kind] {
			t.Fatalf("JSONL missing %q event", kind)
		}
	}
}
