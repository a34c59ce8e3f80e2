// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics BENCHMARK.json gates and the per-layer metrics that
// attribute them. It measures every layer from outside, by timing calls into
// public functions and by decorating the runtime and transport seams; see
// README.md for the catalogue.
//
//	go run -C bench . --workload static-sim --seed 1 --seconds 10 --trace 0
//	go run -C bench . --workload all --trace 1
//	go run -C bench . -selfcheck
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"aacc/internal/obs"
)

// sizes are the workloads' input sizes. The full set is what BENCHMARK.json
// describes; the small set is the tests', which run every code path in
// seconds.
type sizes struct {
	staticN, dynamicN, ingestN, serveN, clusterN int

	p, m       int // processors, BA edges per new vertex
	delEdges   int // edges deleted per dynamic-edges round
	ingestRate int // ingest-churn open loop, ops/s
	burstRate  int // ingest-churn burst size per --seconds second
	serveRate  int // serve-topk open loop, requests/s
	serveChurn int // serve-topk: the binary's own -ingest-rate
	serveConns int
}

var fullSizes = sizes{
	staticN: 2000, dynamicN: 1800, ingestN: 600, serveN: 1000, clusterN: 2000,
	p: 8, m: 2, delEdges: 8, ingestRate: 80, burstRate: 100,
	serveRate: 200, serveChurn: 1, serveConns: 2,
}

var smallSizes = sizes{
	staticN: 150, dynamicN: 150, ingestN: 150, serveN: 150, clusterN: 150,
	p: 8, m: 2, delEdges: 4, ingestRate: 80, burstRate: 100,
	serveRate: 100, serveChurn: 10, serveConns: 2,
}

// tracedStream is the sub-seed stream of the traced rep's inputs, apart from
// the untraced reps' streams 0,1,2,... so that its counts do not depend on
// how many untraced reps fitted into --seconds.
const tracedStream = 1 << 20

// env is one workload run.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sz       sizes
	root     string        // checkout root: the directory that holds BENCHMARK.json
	outDir   string        // where the trace file goes; root/bench/out unless a test redirects it
	aacc     string        // built cmd/aacc binary, "" until a workload builds it
	warmUp   time.Duration // busy cores before the run starts; the tests skip it
	rep      *report
	tr       *tracer // non-nil in the traced run only
	start    time.Time
	// measureFrom is when the measuring budget started: the run's start,
	// or the end of set-up for the workloads that converge a base first.
	measureFrom time.Time
}

// more reports whether another untraced rep (or round) should start: the
// first always does, later ones while the measuring budget lasts. The traced
// run spends half of --seconds on untraced reps and the rest on its repeat.
func (e *env) more(rep int) bool {
	budget := e.seconds
	if e.trace {
		budget /= 2
	}
	return rep == 0 || time.Since(e.measureFrom) < budget
}

// hostWarmUp is how long every run keeps the cores busy before it starts.
// After a lightly loaded spell (the tail of the previous run) the host this
// was written on gives the first second or so of heavy work half its speed,
// and which of the two speeds a run's first rep got varied from run to run:
// a serve-topk server's first exact answer came after 0.85 s or 0.44 s, its
// p99 was 50-160 ms or 20 ms, and rep 0 of static-sim set up in 0.28 s or
// 0.19 s, on one seed.
const hostWarmUp = 1500 * time.Millisecond

// warmHost keeps every core the benchmark may use busy for d.
func warmHost(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < goruntime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := time.Now().Add(d); time.Now().Before(end); {
			}
		}()
	}
	wg.Wait()
}

func (e *env) buildDir() string { return filepath.Join(e.root, ".bench_build") }

var runners = map[string]func(*env) error{
	wStaticSim: func(e *env) error { return runStatic(e, false) },
	wStaticTCP: func(e *env) error { return runStatic(e, true) },
	wDynamic:   runDynamic,
	wIngest:    runIngest,
	wServe:     runServe,
	wCluster:   runCluster,
}

// findRoot locates the checkout root from the working directory, which is
// the root itself or bench/ under `go run -C bench`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "aacc")); err == nil {
				return filepath.Abs(dir)
			}
		}
	}
	return "", errors.New("run from the repository root or from bench/: BENCHMARK.json and cmd/aacc not found")
}

func hostShape() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, model)
}

func rusage(who int) (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	return rusageOf(&ru)
}

// resetPeakRSS starts a new peak-RSS measurement for this process: it
// collects garbage, returns freed memory to the system and resets the
// kernel's high-water mark (Linux: "5" to /proc/self/clear_refs), so that
// peakRSSMB afterwards is the peak of what ran in between and a workload can
// report the median over its reps, not the maximum of them all. Where the
// reset is not supported the whole-process peak from getrusage stands in.
func resetPeakRSS() {
	goruntime.GC()
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // optional
}

func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	_, rss := rusage(syscall.RUSAGE_SELF)
	return rss
}

func rusageOf(ru *syscall.Rusage) (cpu time.Duration, maxRSSMB float64) {
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(e *env, log io.Writer) (*report, error) {
	run, ok := runners[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", e.workload, strings.Join(allWorkloads(), ", "))
	}
	e.rep = newReport(e.workload, log)
	if e.trace {
		e.tr = newTracer(e.workload)
	}
	e.rep.logf("workload %s seed=%d seconds=%g trace=%t", e.workload, e.seed, e.seconds.Seconds(), e.trace)
	e.rep.logf("%s", hostShape())
	warmHost(e.warmUp)
	warmCPU, _ := rusage(syscall.RUSAGE_SELF) // not the workload's
	e.start = time.Now()
	e.measureFrom = e.start
	root := e.tr.begin("workload")
	err := run(e)
	e.tr.end(root)
	wall := time.Since(e.start)
	if err != nil {
		e.rep.check(false, "%v", err)
	}

	if slices.Contains(onInProcess, e.workload) && e.trace {
		cpu, _ := rusage(syscall.RUSAGE_SELF)
		cpu -= warmCPU
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		e.rep.set("proc.cpu_s", cpu.Seconds())
		e.rep.set("proc.cpu_util", cpu.Seconds()/wall.Seconds()/float64(goruntime.NumCPU()))
		e.rep.set("go.alloc_mb", float64(ms.TotalAlloc)/(1<<20))
		e.rep.set("go.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
		e.rep.set("go.num_gc", float64(ms.NumGC))
	}
	e.rep.set("fail_share", float64(e.rep.failed)/float64(max(e.rep.attempted, 1)))
	if e.trace {
		if e.outDir == "" {
			e.outDir = filepath.Join(e.root, "bench", "out")
		}
		path, werr := e.tr.write(e.outDir)
		if werr != nil {
			e.rep.check(false, "writing the trace: %v", werr)
		} else {
			e.rep.logf("trace: %d spans in %s", len(e.tr.spans), path)
		}
	}
	defs := slices.Concat(endToEnd, native)
	if e.trace {
		defs = append(defs, layers...)
	}
	for _, name := range e.rep.missing(defs) {
		e.rep.problems = append(e.rep.problems, name+" was not measured")
	}
	for _, p := range e.rep.problems {
		e.rep.logf("PROBLEM %s: %s", e.workload, p)
	}
	e.rep.printMetrics()
	e.rep.logf("operations: %d attempted, %d failed; wall %.2fs", e.rep.attempted, e.rep.failed, wall.Seconds())
	return e.rep, err
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 10, "measuring time per workload")
		trace     = flag.Int("trace", 0, "1 adds the traced repeat and prints the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the whole set twice and compare the two")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	goruntime.GOMAXPROCS(min(goruntime.NumCPU(), 4))
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *selfcheck || *workload == "all" {
		os.Exit(runSet(root, *seed, *seconds, *trace == 1, *selfcheck))
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, sz: fullSizes, root: root, warmUp: hostWarmUp,
	}
	rep, err := runWorkload(e, os.Stdout)
	if rep == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := rep.result(defs)
	fmt.Println(res.line())
	if !res.Correct {
		os.Exit(1)
	}
}

// childResult is what the set runner reads back from one workload process.
type childResult struct {
	metrics map[string]float64
	ok      bool
}

// runChild re-executes this binary for one workload, so that peak RSS and
// CPU time are per workload, and parses its "metric" lines.
func runChild(root, workload string, seed int64, seconds float64, trace bool, out io.Writer) childResult {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(out, "bench:", err)
		return childResult{}
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintln(out, "bench:", err)
		return childResult{}
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(out, "bench:", err)
		return childResult{}
	}
	res := childResult{metrics: map[string]float64{}}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				res.metrics[f[1]] = v
			}
		}
	}
	res.ok = cmd.Wait() == nil
	return res
}

// runSet runs every workload once (or, for -selfcheck, twice on the same
// seed, comparing the two) and returns the exit code.
func runSet(root string, seed int64, seconds float64, trace, selfcheck bool) int {
	fmt.Println(hostShape())
	rounds := 1
	if selfcheck {
		rounds, trace = 2, true // the exact counts are per-layer metrics
	}
	results := make([]map[string]childResult, rounds)
	code := 0
	for r := range results {
		results[r] = map[string]childResult{}
		for _, w := range allWorkloads() {
			fmt.Printf("\n=== %s (run %d of %d) ===\n", w, r+1, rounds)
			res := runChild(root, w, seed, seconds, trace, os.Stdout)
			if !res.ok {
				fmt.Printf("FAILED %s\n", w)
				code = 1
			}
			results[r][w] = res
		}
	}
	if selfcheck && !compareRuns(results[0], results[1], os.Stdout) {
		code = 1
	}
	return code
}

// compareRuns prints, per workload, how far apart two runs of the same code
// put every end-to-end metric, as a share of the smaller value and in either
// direction, against its bound, and whether every exact count repeated; it
// reports whether all held.
func compareRuns(a, b map[string]childResult, out io.Writer) bool {
	ok := true
	fmt.Fprintf(out, "\n=== selfcheck: run 2 against run 1 ===\n")
	for _, w := range allWorkloads() {
		for _, m := range endToEnd {
			x, y := a[w].metrics[m.name], b[w].metrics[m.name]
			if x == 0 || y == 0 {
				fmt.Fprintf(out, "%-14s %-28s missing\n", w, m.name)
				ok = false
				continue
			}
			apart := math.Abs(y-x) / min(x, y)
			verdict := "ok"
			if apart > m.bound {
				verdict, ok = "BREACH", false
			}
			fmt.Fprintf(out, "%-14s %-28s %12.5g vs %12.5g  %5.1f%% apart (bound %.0f%%) %s\n", w, m.name, x, y, 100*apart, 100*m.bound, verdict)
		}
		for _, m := range perLayer {
			if !m.exact || !measuredOn(m, w) {
				continue
			}
			x, y := a[w].metrics[m.name], b[w].metrics[m.name]
			verdict := "repeats"
			if x != y {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(out, "%-14s %-28s %12.0f == %12.0f  %s\n", w, m.name, x, y, verdict)
		}
	}
	return ok
}

// scrapeRegistry reads an in-process registry the way /metrics is read from
// the binaries.
func scrapeRegistry(reg *obs.Registry) (map[string]float64, error) {
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.String()), nil
}

// parseProm reads a Prometheus text exposition into sample -> value, keyed
// by the sample as written ("name" or `name{label="x"}`).
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
