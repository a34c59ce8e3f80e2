package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// report collects one workload run's metrics and its operation counts.
type report struct {
	workload string
	log      io.Writer

	mu        sync.Mutex
	vals      map[string]float64
	samples   map[string]int // sample count behind a median, for the printout
	attempted int
	failed    int
	problems  []string // names set twice, unknown or not measured here
}

func newReport(workload string, log io.Writer) *report {
	return &report{workload: workload, log: log, vals: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric. Setting a name that the catalogue does not list for
// this workload, or setting one twice, is a bug in the benchmark; it is kept
// and fails the run.
func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	def, ok := findMetric(name)
	switch {
	case !ok:
		r.problems = append(r.problems, "unnamed metric "+name)
	case !measuredOn(def, r.workload):
		r.problems = append(r.problems, name+" is not a metric of "+r.workload)
	}
	if _, dup := r.vals[name]; dup {
		r.problems = append(r.problems, name+" emitted twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("%s is not finite (%v)", name, v))
		v = 0
	}
	r.vals[name] = v
}

// setMedian records the median of xs and remembers the sample count.
func (r *report) setMedian(name string, xs []float64) {
	r.set(name, median(xs))
	r.mu.Lock()
	r.samples[name] = len(xs)
	r.mu.Unlock()
}

func (r *report) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vals[name]
}

// op counts one attempted operation; a false ok counts it as failed too.
func (r *report) op(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check counts one oracle comparison and logs a mismatch.
func (r *report) check(ok bool, format string, args ...any) {
	r.op(ok)
	if !ok {
		fmt.Fprintf(r.log, "MISMATCH %s: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// missing lists the metrics of defs that this workload measures but the run
// did not set.
func (r *report) missing(defs []metricDef) []string {
	var out []string
	for _, m := range defs {
		if _, ok := r.vals[m.name]; !ok && measuredOn(m, r.workload) {
			out = append(out, m.name)
		}
	}
	return out
}

// printMetrics writes one "metric <name> <value> <unit>" line per metric set,
// in catalogue order; the set runner and -selfcheck parse these lines.
func (r *report) printMetrics() {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			v, ok := r.vals[m.name]
			if !ok {
				continue
			}
			note := ""
			if n := r.samples[m.name]; n > 0 {
				note = fmt.Sprintf("  (median of %d)", n)
			}
			if m.exact {
				note += "  ="
			}
			fmt.Fprintf(r.log, "metric %-32s %14s %s%s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit, note)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the final line: every metric of defs, 0 where this workload
// bypasses the layer.
func (r *report) result(defs []metricDef) jsonResult {
	res := jsonResult{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, m := range defs {
		res.Metrics[m.name] = jsonMetric{Value: r.vals[m.name], Unit: m.unit}
	}
	return res
}

func (res jsonResult) line() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	return string(b)
}
