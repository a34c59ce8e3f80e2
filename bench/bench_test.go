package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"aacc/internal/core"
	"aacc/internal/obs"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func fromCatalogue() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		f.EndToEnd = append(f.EndToEnd, fileMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, fileMetric{m.name, m.unit, m.better, nil})
	}
	return f
}

// TestBenchmarkJSON pins BENCHMARK.json to the catalogue: same workloads,
// metrics, units, directions and bounds, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(fromCatalogue(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	again, _ := json.MarshalIndent(got, "", "  ")
	if string(again) != string(want) {
		t.Fatalf("BENCHMARK.json differs from the catalogue; the catalogue gives:\n%s", want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestCatalogue checks the limits the benchmark contract puts on names.
func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("metric %q unit %q breaks the naming rules", m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("metric %q is listed twice", m.name)
			}
			seen[m.name] = true
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("metric %q has direction %q", m.name, m.better)
			}
			if len(m.on) == 0 {
				t.Errorf("metric %q is measured nowhere", m.name)
			}
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 || len(m.on) != len(workloads) {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25] and every workload", m.name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
	}
}

// TestReadmeNamesEverything keeps the README's catalogue complete.
func TestReadmeNamesEverything(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !strings.Contains(doc, "`"+m.name+"`") {
				t.Errorf("README.md does not document %s", m.name)
			}
		}
	}
	for _, w := range workloads {
		if !strings.Contains(doc, "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}

func smallEnv(t *testing.T, workload string, seed int64, trace bool) *env {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &env{workload: workload, seed: seed, seconds: 300 * time.Millisecond, trace: trace,
		sz: smallSizes, root: root, outDir: t.TempDir()}
}

// TestWorkloads runs all six workloads at n=150, traced: every metric the
// catalogue lists for the workload is emitted exactly once with a finite
// value, nothing unnamed is emitted, every oracle check passes, and a second
// run on the same seed reproduces every exact count.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && (w.name == wServe || w.name == wCluster) {
				t.Skip("builds and spawns the aacc binary")
			}
			var reps [2]*report
			for i := range reps {
				rep, err := runWorkload(smallEnv(t, w.name, 7, true), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.problems) > 0 {
					t.Fatalf("problems: %v", rep.problems)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("%d of %d operations failed", rep.failed, rep.attempted)
				}
				reps[i] = rep
			}
			for _, list := range [][]metricDef{endToEnd, perLayer} {
				for _, m := range list {
					v, emitted := reps[0].vals[m.name]
					if emitted != measuredOn(m, w.name) {
						t.Errorf("%s: emitted=%t, catalogue says measured=%t", m.name, emitted, !emitted)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", m.name, v)
					}
					if m.exact && emitted && v != reps[1].vals[m.name] {
						t.Errorf("%s: %v then %v on the same seed", m.name, v, reps[1].vals[m.name])
					}
				}
			}
			for _, m := range endToEnd {
				if reps[0].vals[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, reps[0].vals[m.name])
				}
			}
			res := reps[0].result(perLayer)
			if len(res.Metrics) != len(perLayer) || !res.Correct {
				t.Errorf("result line: %d metrics, correct=%t", len(res.Metrics), res.Correct)
			}
		})
	}
}

// TestUntracedRun: without --trace the run sets the end-to-end metrics and
// the native ones of its workload, nothing else, and the result line carries
// exactly the end-to-end metrics.
func TestUntracedRun(t *testing.T) {
	rep, err := runWorkload(smallEnv(t, wDynamic, 3, false), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := len(endToEnd)
	for _, m := range native {
		if measuredOn(m, wDynamic) {
			want++
			if _, ok := rep.vals[m.name]; !ok {
				t.Errorf("%s was not measured", m.name)
			}
		}
	}
	if len(rep.vals) != want || len(rep.problems) > 0 {
		t.Fatalf("%d metrics set, want %d; problems %v", len(rep.vals), want, rep.problems)
	}
	if res := rep.result(endToEnd); len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Fatalf("result line: %d metrics, correct=%t", len(res.Metrics), res.Correct)
	}
}

// TestCompareRunsIsTwoSided: a metric that halves between two runs of the
// same code disagrees as much as one that doubles.
func TestCompareRunsIsTwoSided(t *testing.T) {
	set := func(exact float64) map[string]childResult {
		out := map[string]childResult{}
		for _, w := range allWorkloads() {
			out[w] = childResult{metrics: map[string]float64{"setup_s": 1, "first_answer_ms": 1, "exact_s": exact, "peak_rss_mb": 1}}
		}
		return out
	}
	if !compareRuns(set(10), set(10.5), io.Discard) {
		t.Error("5% apart is within every bound")
	}
	if compareRuns(set(10), set(5), io.Discard) || compareRuns(set(5), set(10), io.Discard) {
		t.Error("10 s against 5 s must breach in either order")
	}
}

func TestReportFlagsMisuse(t *testing.T) {
	r := newReport(wStaticSim, io.Discard)
	r.set("setup_s", 1)
	r.set("setup_s", 2)          // twice
	r.set("nonsense", 1)         // unnamed
	r.set("topk_ms_p50", 1)      // not measured on static-sim
	r.set("exact_s", math.NaN()) // not finite
	if len(r.problems) != 4 {
		t.Fatalf("problems = %v", r.problems)
	}
	if r.result(endToEnd).Correct {
		t.Fatal("a report with problems must not be correct")
	}
}

func TestGeneratorsRepeat(t *testing.T) {
	a, b := baGraph(300, 2, 5), baGraph(300, 2, 5)
	if !a.IsConnected() || a.NumEdges() != 2+2*(300-3) {
		t.Fatalf("BA graph: connected=%t edges=%d", a.IsConnected(), a.NumEdges())
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("the same seed gave different graphs")
		}
	}
	if c := baGraph(300, 2, 6); len(c.Edges()) == len(ea) && c.Edges()[len(ea)-1] == ea[len(ea)-1] && c.Edges()[len(ea)/2] == ea[len(ea)/2] {
		t.Fatal("different seeds gave the same graph")
	}

	// The churn mix is exactly 60/25/15 over whole periods, it never touches
	// a base edge, and the mirror follows it op by op.
	mirror := a.Clone()
	ch := newChurn(a, 9)
	var adds, readds, dels int
	for i := 0; i < 2000; i++ {
		m := ch.next(mirror)
		switch {
		case m.Kind == core.MutEdgeDeleteEager:
			dels++
			if a.HasEdge(m.Pairs[0][0], m.Pairs[0][1]) {
				t.Fatal("deleted a base edge")
			}
		case i%20 == 5 || i%20 == 10 || i%20 == 16:
			readds++
			if m.Kind != core.MutEdgeAdd || m.Edges[0].W != 1 {
				t.Fatalf("op %d is not a re-add at weight 1: %+v", i, m)
			}
		default:
			adds++
		}
	}
	if adds != 1200 || dels != 500 || readds != 300 {
		t.Fatalf("mix %d adds, %d deletions, %d re-adds in 2000 ops", adds, dels, readds)
	}
	if mirror.NumEdges() != a.NumEdges()+len(ch.live) {
		t.Fatalf("mirror has %d edges, base %d + %d owned", mirror.NumEdges(), a.NumEdges(), len(ch.live))
	}
}

func TestTracerSelfTimesSumToWall(t *testing.T) {
	tr := newTracer("t")
	root := tr.begin("rep")
	step := tr.begin("step[0]")
	inner := tr.begin("runtime.exchange")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	// The engine reports its phase after the fact; it must adopt the
	// decorator's span that ran inside it.
	s := tr.spans[inner-1]
	tr.Span(obs.Span{Name: "engine.exchange", Start: tr.t0.Add(time.Duration(s.StartNS) - time.Millisecond), Dur: s.dur() + 2*time.Millisecond})
	tr.end(step)
	tr.end(root)
	if got := tr.spans[inner-1].Parent; tr.spans[got-1].Name != "engine.exchange" {
		t.Fatalf("runtime.exchange is under %q", tr.spans[got-1].Name)
	}
	rows, wall := tr.selfTimes(root)
	var total time.Duration
	for _, d := range rows {
		total += d
	}
	if total != wall || wall != tr.spans[root-1].dur() {
		t.Fatalf("self times sum to %v, wall %v", total, wall)
	}
	if tr.total("runtime.exchange", root) != s.dur() {
		t.Fatal("total() lost the span")
	}
	path, err := tr.write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if n := strings.Count(string(raw), "\n"); n != len(tr.spans) {
		t.Fatalf("%d lines for %d spans", n, len(tr.spans))
	}
}

func TestStats(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if m := median(xs); m != 499.5 {
		t.Fatalf("median %v", m)
	}
	if label, v, ok := tail(xs); !ok || label != "p99" || math.Abs(v-989.01) > 0.01 {
		t.Fatalf("tail of 1000 = %s %v %t", label, v, ok)
	}
	if _, _, ok := tail(xs[:50]); ok {
		t.Fatal("50 samples support no tail percentile")
	}
	if label, _, _ := tail(xs[:160]); label != "p90" {
		t.Fatalf("tail of 160 = %s", label)
	}
}

func TestParseProm(t *testing.T) {
	got := parseProm("# HELP x y\n# TYPE x counter\nx 3\nh_sum{phase=\"a b\"} 0.25\nbad\n")
	if got["x"] != 3 || got[`h_sum{phase="a b"}`] != 0.25 || len(got) != 2 {
		t.Fatalf("%v", got)
	}
}

func TestReportedWallAndRanking(t *testing.T) {
	out := "top 10 by harmonic closeness:\n  1. vertex 7        0.5\n  2. vertex 12       0.4  (contended)\n\nrc steps: 6   wall: 3.432s\n"
	if d, ok := reportedWall(out); !ok || d != 3432*time.Millisecond {
		t.Fatalf("wall %v %t", d, ok)
	}
	if ids := printedTop(out); len(ids) != 2 || ids[0] != 7 || ids[1] != 12 {
		t.Fatalf("ranking %v", ids)
	}
}
