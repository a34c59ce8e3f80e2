package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	goruntime "runtime"
	"slices"
	"strconv"
	"time"

	"aacc/internal/centrality"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

var rankLine = regexp.MustCompile(`(?m)^\s*\d+\. vertex (\d+)`)

// printedTop parses the vertex ids of the report's ranking.
func printedTop(out string) []graph.ID {
	var ids []graph.ID
	for _, m := range rankLine.FindAllStringSubmatch(out, -1) {
		v, _ := strconv.Atoi(m[1])
		ids = append(ids, graph.ID(v))
	}
	return ids
}

const (
	clusterTop    = 10
	rankingMarker = "top 10 by"
)

// clusterRep is one batch run of two workers and a coordinator.
type clusterRep struct {
	ranked   time.Duration // first spawn -> coordinator printed its ranking
	done     time.Duration // first spawn -> coordinator and both workers exited 0
	coordEnd time.Duration // first spawn -> coordinator exited
	wall     time.Duration // the report's wall: field
	cpu      time.Duration
	rssMB    float64 // summed over the three processes
	prom     []map[string]float64
}

// clusterRun spawns the deployment on the graph file and waits for it. With
// scrape, every worker also serves /metrics and lingers long enough to be
// scraped after the coordinator is done.
func clusterRun(e *env, file string, want []graph.ID, scrape bool) (clusterRep, error) {
	var rep clusterRep
	ctrl, err := freePort()
	if err != nil {
		return rep, err
	}
	common := []string{"-graph", file, "-p", strconv.Itoa(e.sz.p), "-workers", "1"}
	var workers []*child
	var obsAddrs []string
	first := time.Now()
	for i := 0; i < 2; i++ {
		args := append([]string{"-role", "worker", "-coordinator", ctrl}, common...)
		if scrape {
			addr, err := freePort()
			if err != nil {
				return rep, err
			}
			obsAddrs = append(obsAddrs, addr)
			args = append(args, "-obs-addr", addr, "-linger", "1s")
		}
		w, err := e.spawn(fmt.Sprintf("worker%d", i), nil, args...)
		if err != nil {
			return rep, err
		}
		defer w.kill()
		workers = append(workers, w)
	}
	coord, err := e.spawn("coordinator", []string{rankingMarker}, append([]string{"-role", "coordinator", "-listen", ctrl,
		"-cluster-workers", "2", "-top", strconv.Itoa(clusterTop), "-harmonic"}, common...)...)
	if err != nil {
		return rep, err
	}
	defer coord.kill()

	err = coord.wait(exitWithin)
	rep.coordEnd = time.Since(first)
	e.rep.check(err == nil, "coordinator exit: %v", err)
	if err != nil {
		e.rep.logf("%s", coord.logTail(20))
		for _, w := range workers {
			e.rep.logf("%s", w.logTail(10))
		}
		return rep, fmt.Errorf("coordinator: %w", err)
	}
	if scrape {
		client := &http.Client{}
		for i, addr := range obsAddrs {
			body, status, err := get(client, "http://"+addr+"/metrics")
			e.rep.check(err == nil && status == http.StatusOK, "scraping worker %d: status %d, %v", i, status, err)
			rep.prom = append(rep.prom, parseProm(body))
		}
		client.CloseIdleConnections()
	}
	for _, w := range workers {
		err := w.wait(exitWithin)
		e.rep.check(err == nil, "%s exit: %v", w.name, err)
		if err != nil {
			e.rep.logf("%s", w.logTail(10))
		}
	}
	rep.done = time.Since(first)
	if at := coord.out.seenAt(rankingMarker); !at.IsZero() {
		rep.ranked = at.Sub(first)
	}
	out := coord.out.String()
	got := printedTop(out)
	e.rep.check(slices.Equal(got, want), "coordinator printed top-%d %v, oracle %v", clusterTop, got, want)
	var ok bool
	rep.wall, ok = reportedWall(out)
	e.rep.check(ok && rep.ranked > 0, "coordinator report lacks the ranking or the wall: field")
	for _, c := range append(workers, coord) {
		cpu, rss := c.usage()
		rep.cpu += cpu
		rep.rssMB += rss
	}
	return rep, nil
}

// runCluster is cluster-2w: the multi-process deployment as a batch run,
// timed from the first spawn.
func runCluster(e *env) error {
	if err := e.buildAacc(); err != nil {
		return err
	}
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// prepare is one set-up: generate, write the graph file, compute the
	// oracle's top-10.
	prepare := func(stream int) (string, []graph.ID, error) {
		g := baGraph(e.sz.clusterN, e.sz.m, subSeed(e.seed, stream))
		file := filepath.Join(dir, fmt.Sprintf("graph-%d.txt", stream))
		if err := writeGraph(file, g); err != nil {
			return "", nil, err
		}
		scores := centrality.FromDistances(sssp.APSP(g, 0), g.Vertices(), g.NumIDs())
		return file, harmonicTop(scores, clusterTop), nil
	}

	var setup, ranked, done, coordEnd, wall, rss, cpu []float64
	began := time.Now()
	for rep := 0; e.more(rep); rep++ {
		t0 := time.Now()
		file, want, err := prepare(rep)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		r, err := clusterRun(e, file, want, false)
		if err != nil {
			return fmt.Errorf("rep %d: %w", rep, err)
		}
		ranked = append(ranked, r.ranked.Seconds()*1000)
		done = append(done, r.done.Seconds())
		coordEnd = append(coordEnd, r.coordEnd.Seconds())
		wall = append(wall, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		cpu = append(cpu, r.cpu.Seconds())
		e.rep.logf("rep %d: ranking printed %.3fs, all exited %.3fs after the first spawn (report wall %.3fs)",
			rep, r.ranked.Seconds(), r.done.Seconds(), r.wall.Seconds())
	}
	elapsed := time.Since(began)
	e.rep.setMedian("setup_s", setup)
	e.rep.setMedian("first_answer_ms", ranked)
	e.rep.setMedian("exact_s", done)
	e.rep.setMedian("peak_rss_mb", rss)
	e.rep.setMedian("converge_s", done)
	if !e.trace {
		return nil
	}
	e.rep.setMedian("cli.reported_wall_s", wall)
	e.rep.set("dist.startup_s", median(done)-median(wall))
	e.rep.set("proc.cpu_s", sum(cpu))
	e.rep.set("proc.cpu_util", sum(cpu)/elapsed.Seconds()/float64(goruntime.NumCPU()))

	// Traced repeat: every worker serves /metrics and is scraped.
	file, want, err := prepare(tracedStream)
	if err != nil {
		return err
	}
	r, err := clusterRun(e, file, want, true)
	if err != nil {
		return fmt.Errorf("traced rep: %w", err)
	}
	var install, exchange, rounds, retries float64
	for _, p := range r.prom {
		install = max(install, p[`aacc_engine_phase_seconds_sum{phase="install_relax"}`])
		exchange = max(exchange, p[`aacc_engine_phase_seconds_sum{phase="exchange"}`])
		rounds = max(rounds, p["aacc_transport_wire_rounds_total"])
		retries += p["aacc_transport_retries_total"]
	}
	e.rep.set("dist.install_relax_s_max", install)
	e.rep.set("dist.exchange_s_max", exchange)
	e.rep.set("dist.wire_rounds", rounds)
	e.rep.set("dist.wire_retries", retries)
	// Like for like: the scraped workers linger, so both sides stop the clock
	// when the coordinator exits.
	e.rep.set("trace.overhead_share", (r.coordEnd.Seconds()-median(coordEnd))/median(coordEnd))
	return nil
}
