package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/obs"
)

// TestJSONLTrace drives an engine with the JSONL writer as its tracer, end
// to end: every line is a span, the engine.step spans carry consecutive trace
// keys and step numbers up to a converged step, and the mutation between the
// two runs is one engine.apply span.
func TestJSONLTrace(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	g := gen.BarabasiAlbert(80, 2, 3, gen.Config{})
	e, err := core.New(g, core.Options{P: 4, Seed: 3, Tracer: j})
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
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	var steps []map[string]any
	applies := 0
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		if m["type"] != "span" || m["component"] != "engine" {
			t.Fatalf("unexpected record %v", m)
		}
		if _, ok := m["dur_ms"].(float64); !ok {
			t.Fatalf("span without duration: %v", m)
		}
		switch m["name"] {
		case "engine.step":
			steps = append(steps, m)
		case "engine.apply":
			applies++
			if m["detail"] != "edge-add: 1 edges" {
				t.Fatalf("apply span detail %v", m["detail"])
			}
		}
	}
	if len(steps) != e.StepCount() || applies != 1 {
		t.Fatalf("%d engine.step spans for %d steps, %d engine.apply spans", len(steps), e.StepCount(), applies)
	}
	for i, m := range steps {
		if m["trace"] != float64(i+1) || !strings.HasPrefix(m["detail"].(string), fmt.Sprintf("step %d: ", i+1)) {
			t.Fatalf("engine.step span %d not consecutive: %v", i, m)
		}
	}
	if last := steps[len(steps)-1]["detail"].(string); !strings.HasSuffix(last, "converged=true") {
		t.Fatalf("last step not converged: %q", last)
	}
}

func TestJSONLSpanRender(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	j.Span(obs.Span{
		Trace:     42,
		Component: "engine",
		Name:      "engine.collect",
		Start:     time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Dur:       1500 * time.Microsecond,
	})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"span","trace":42,"component":"engine","name":"engine.collect","start":"2026-01-02T03:04:05Z","dur_ms":1.5}` + "\n"
	if buf.String() != want {
		t.Fatalf("span line\n got %s\nwant %s", buf.String(), want)
	}
}
