// Package obs is the live-telemetry layer: a dependency-free (stdlib-only),
// lock-light metrics registry with Prometheus-text-format exposition. Every
// layer of the stack — the engine's step phases, the execution runtime's
// traffic accounting, the wire transport and the anytime session — registers
// instruments against one Registry, and a running -serve session exposes the
// whole catalogue over HTTP (see internal/cli's -obs-addr).
//
// Design rules:
//
//   - Registration (Counter/Gauge/Histogram on a Registry) takes locks and
//     allocates; it happens at setup time. The instruments themselves are
//     single atomic words (or a fixed array of them for histograms), so the
//     hot path never locks and never allocates.
//   - Every instrument method is nil-receiver safe: a component whose
//     registry was never configured holds nil instruments and pays exactly
//     one branch per call site. The engine additionally nil-checks its whole
//     instrument set so the disabled Step path takes no timestamps at all.
//   - Exposition is deterministic: families sort by name, children by their
//     rendered label set, so golden tests and scrape diffs are stable.
package obs

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair attached to an instrument.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the three instrument families.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// atomicFloat is a float64 manipulated through its IEEE-754 bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counter is a monotonically non-decreasing value.
type Counter struct{ v atomicFloat }

// Add adds v to the counter. Negative or NaN increments are ignored —
// counters only go up.
func (c *Counter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	c.v.add(v)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.store(v)
}

// Add adds v (which may be negative) to the gauge.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.add(v)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive), sorted ascending; the implicit +Inf bucket is always
// present. Observe is wait-free apart from one CAS loop on the sum.
type Histogram struct {
	upper  []float64       // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sum    atomicFloat
}

// Observe records one sample. NaN observations are ignored.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
}

// ObserveDuration records d in seconds, the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// DefDurationBuckets is the default bucket layout for phase/latency
// histograms: 10µs to 10s, roughly logarithmic. RC-step phases on bench
// graphs land mid-range; wire exchanges and large deletions use the tail.
var DefDurationBuckets = []float64{
	10e-6, 25e-6, 100e-6, 250e-6,
	1e-3, 2.5e-3, 10e-3, 25e-3,
	0.1, 0.25, 1, 2.5, 10,
}

// family is one named metric with its children (one per label set).
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // rendered label set -> instrument
	labels   map[string][]Label
}

// Registry holds a catalogue of metric families. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	rec  *Recorder
}

// processStart is captured once at process init so every registry reports
// the same start time regardless of when it was constructed.
var processStart = time.Now()

// NewRegistry returns a registry pre-populated with process identity
// metrics (aacc_build_info, aacc_process_start_time_seconds) and an
// attached flight recorder (see Events).
func NewRegistry() *Registry {
	r := newBareRegistry()
	r.rec = NewRecorder(DefRecorderSize)
	r.Gauge("aacc_build_info",
		"Process identity: constant 1, labeled with the Go runtime version and GOMAXPROCS.",
		L("goversion", goruntime.Version()),
		L("gomaxprocs", strconv.Itoa(goruntime.GOMAXPROCS(0)))).Set(1)
	r.Gauge("aacc_process_start_time_seconds",
		"Unix time the process started, in seconds.").
		Set(float64(processStart.UnixNano()) / 1e9)
	return r
}

// newBareRegistry returns an empty registry with no process metadata and no
// recorder — used by golden tests that pin exact exposition output.
func newBareRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Events returns the registry's flight recorder. Nil-safe: a nil registry
// returns a nil recorder, whose methods are no-ops in turn, so call sites
// can record unconditionally via reg.Events().Record(...).
func (r *Registry) Events() *Recorder {
	if r == nil {
		return nil
	}
	return r.rec
}

// std is the package-level default registry, for components without an
// explicit plumbing path. The CLI wires an explicit registry instead, so
// tests never share state through this.
var std = NewRegistry()

// Default returns the package-level default registry.
func Default() *Registry { return std }

// family returns (creating if needed) the named family, enforcing that a
// name is only ever registered with one kind.
func (r *Registry) family(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{
			name:     name,
			help:     help,
			kind:     kind,
			buckets:  buckets,
			children: make(map[string]any),
			labels:   make(map[string][]Label),
		}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested %s", name, f.kind, kind))
	}
	return f
}

// child returns (creating via mk if needed) the instrument for the label set.
func (f *family) child(labels []Label, mk func() any) any {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	f.labels[key] = append([]Label(nil), labels...)
	return c
}

// Counter registers (or returns the existing) counter with the given name
// and label set. Registering the same name with a different instrument kind
// panics — that is a programming error caught at setup time.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, counterKind, nil)
	return f.child(labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, gaugeKind, nil)
	return f.child(labels, func() any { return new(Gauge) }).(*Gauge)
}

// FuncGauge is a gauge whose value is computed by a callback at scrape
// time. Use it for values that are derived from live state (snapshot age,
// queue occupancy) rather than maintained by explicit Set calls.
type FuncGauge struct{ fn func() float64 }

// Value evaluates the callback (0 on a nil gauge or nil callback).
func (g *FuncGauge) Value() float64 {
	if g == nil || g.fn == nil {
		return 0
	}
	return g.fn()
}

// GaugeFunc registers a gauge whose value is fn(), evaluated at every
// scrape. It shares the gauge kind, so a name may mix Set-style and
// func-style children across label sets. The first registration of a given
// name+label set wins; later calls are no-ops (in particular they never
// replace an existing callback or Set-style gauge). fn is called with the
// family lock held, so it must be fast and must not register instruments
// on the same registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, gaugeKind, nil)
	f.child(labels, func() any { return &FuncGauge{fn: fn} })
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (nil = DefDurationBuckets). The first registration of
// a name fixes the family's buckets; later calls reuse them.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefDurationBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	// Drop a trailing +Inf: the implicit overflow bucket covers it.
	for len(upper) > 0 && math.IsInf(upper[len(upper)-1], 1) {
		upper = upper[:len(upper)-1]
	}
	f := r.family(name, help, histogramKind, upper)
	return f.child(labels, func() any {
		return &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}).(*Histogram)
}

// labelKey renders a label set into its canonical exposition form, which
// doubles as the child map key: {a="x",b="y"} with keys sorted.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}
