package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"aacc/internal/centrality"
)

// topkBody is the /topk response, as far as the benchmark checks it.
type topkBody struct {
	K         int                    `json:"k"`
	Epoch     int                    `json:"epoch"`
	Converged bool                   `json:"converged"`
	Resolved  int                    `json:"resolved"`
	Entries   []centrality.TopKEntry `json:"entries"`
}

// validTopK checks one body: k entries, every score inside its bounds.
func validTopK(b topkBody, k int) bool {
	if len(b.Entries) != k {
		return false
	}
	for _, en := range b.Entries {
		if !(en.Lower <= en.Score && en.Score <= en.Upper) {
			return false
		}
	}
	return true
}

const serveK = 10

// serveSample is one valid /topk answer as the load generator saw it.
type serveSample struct {
	at       time.Time // body read
	latMS    float64
	epoch    int
	exact    bool // converged with the whole prefix resolved
	resolved int
}

// loadTopK is the open-loop load generator: total requests spread over conns
// keep-alive connections, request i due at start + i/rate and timed from
// that due time to the full body read. A request that is not a valid 200
// within one second counts as failed. The samples come back in the order
// their bodies were read.
func loadTopK(url string, conns, rate, total int, rep *report) []serveSample {
	perConn := make([][]serveSample, conns)
	start := time.Now().Add(20 * time.Millisecond)
	interval := time.Second / time.Duration(rate)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			lastEpoch := 0
			for i := c; i < total; i += conns {
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				body, status, err := get(client, url)
				at := time.Now()
				lat := at.Sub(due)
				var b topkBody
				ok := err == nil && status == http.StatusOK && lat <= time.Second &&
					json.Unmarshal([]byte(body), &b) == nil && validTopK(b, serveK) && b.Epoch >= lastEpoch
				rep.op(ok)
				if !ok {
					continue
				}
				lastEpoch = b.Epoch
				perConn[c] = append(perConn[c], serveSample{at: at, latMS: lat.Seconds() * 1000, epoch: b.Epoch,
					exact: b.Converged && b.Resolved == serveK, resolved: b.Resolved})
			}
		}(c)
	}
	wg.Wait()
	var all []serveSample
	for _, s := range perConn {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	return all
}

// runServe is serve-topk: the real binary in -serve mode with its own ingest
// stream, queried over HTTP while it converges and mutates. One server takes
// the whole load.
func runServe(e *env) error {
	if err := e.buildAacc(); err != nil {
		return err
	}
	dir, err := e.tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	seconds := e.seconds.Seconds()
	probe := &http.Client{}
	defer probe.CloseIdleConnections()

	// Set-up, five times because the driver's contract asks for a median and
	// a single 40 ms figure swung between 36 and 77 ms: generate, write the
	// graph file, spawn, poll /healthz to 200. The first four servers are
	// killed as soon as they answer; the fifth takes the whole load.
	const setups = 5
	var setup []float64
	var srv *child
	var addr string
	var ready time.Duration
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.kill()
		}
		t0 := time.Now()
		g := baGraph(e.sz.serveN, e.sz.m, subSeed(e.seed, i))
		file := filepath.Join(dir, fmt.Sprintf("graph-%d.txt", i))
		if err := writeGraph(file, g); err != nil {
			return err
		}
		if addr, err = freePort(); err != nil {
			return err
		}
		// The binary's own generator writes for the length of the load.
		srv, err = e.spawn("serve", nil, "-serve", "-graph", file, "-p", strconv.Itoa(e.sz.p), "-workers", "1",
			"-obs-addr", addr, "-ingest", strconv.Itoa(max(int(seconds*float64(e.sz.serveChurn)), 1)),
			"-ingest-rate", strconv.Itoa(e.sz.serveChurn), "-linger", "60s", "-top", strconv.Itoa(serveK), "-harmonic")
		if err != nil {
			return err
		}
		defer srv.kill()
		_, err = pollHTTP(probe, srv, "http://"+addr+"/healthz", readyWithin)
		e.rep.op(err == nil)
		if err != nil {
			e.rep.logf("%s", srv.logTail(20))
			return err
		}
		ready = time.Since(srv.started)
		setup = append(setup, time.Since(t0).Seconds())
	}
	e.rep.setMedian("setup_s", setup)

	url := fmt.Sprintf("http://%s/topk?k=%d", addr, serveK)
	total := max(int(seconds*float64(e.sz.serveRate)), 20)
	samples := loadTopK(url, min(e.sz.serveConns, goruntime.NumCPU()), e.sz.serveRate, total, e.rep)
	if len(samples) == 0 {
		e.rep.logf("%s", srv.logTail(20))
		return fmt.Errorf("no /topk request succeeded")
	}
	lat := make([]float64, len(samples))
	// epochs counts the epochs the readers saw; inexact counts the answers
	// served while a write was being re-converged, after the first exact one.
	resolved, epochs, lastEpoch, inexact := 0, 0, -1, 0
	var firstExact time.Duration
	for i, s := range samples {
		lat[i] = s.latMS
		resolved += s.resolved
		if s.epoch != lastEpoch {
			epochs, lastEpoch = epochs+1, s.epoch
		}
		switch {
		case s.exact && firstExact == 0:
			firstExact = s.at.Sub(srv.started)
		case !s.exact && firstExact != 0:
			inexact++
		}
	}

	// The final answer: once the stream has drained and the session has
	// settled, /topk must report converged with the whole prefix resolved.
	deadline := time.Now().Add(readyWithin)
	var final topkBody
	for {
		body, status, err := get(probe, url)
		if err == nil && status == http.StatusOK && json.Unmarshal([]byte(body), &final) == nil &&
			final.Converged && final.Resolved == serveK {
			break
		}
		if time.Now().After(deadline) {
			e.rep.check(false, "/topk never reported converged with resolved == k (last: converged=%t resolved=%d)", final.Converged, final.Resolved)
			e.rep.logf("%s", srv.logTail(20))
			break
		}
		time.Sleep(pollEvery)
	}
	e.rep.check(firstExact > 0, "no converged answer was served under load")
	e.rep.check(validTopK(final, serveK), "final /topk body is malformed")
	metrics, _, merr := get(probe, "http://"+addr+"/metrics")
	e.rep.op(merr == nil)
	err = srv.terminate(exitWithin)
	e.rep.check(err == nil, "SIGTERM did not end the server with exit 0: %v", err)
	if err != nil {
		e.rep.logf("%s", srv.logTail(20))
	}
	cpu, rss := srv.usage()

	label, tailV, _ := tail(lat)
	e.rep.logf("/topk: %d of %d requests ok, median %.3fms, %s %.3fms; first exact answer %.3fs after spawn; %d epochs seen, %.1f%% of the answers served while a write re-converged",
		len(lat), total, median(lat), label, tailV, firstExact.Seconds(), epochs, 100*float64(inexact)/float64(len(lat)))
	e.rep.setMedian("first_answer_ms", lat)
	e.rep.set("exact_s", firstExact.Seconds())
	e.rep.set("peak_rss_mb", rss)
	e.rep.setMedian("topk_ms_p50", lat)
	e.rep.set("topk_ms_p99", quantile(lat, 0.99))
	if !e.trace {
		return nil
	}
	prom := parseProm(metrics)
	serverMS := 1000 * prom["aacc_session_topk_query_seconds_sum"] / max(prom["aacc_session_topk_query_seconds_count"], 1)
	e.rep.set("cli.ready_s", ready.Seconds())
	e.rep.set("anytime.topk_server_ms_mean", serverMS)
	e.rep.set("cli.http_overhead_ms", mean(lat)-serverMS)
	e.rep.set("centrality.pruned_fraction_mean", prom["aacc_session_topk_pruned_fraction_sum"]/max(prom["aacc_session_topk_pruned_fraction_count"], 1))
	e.rep.set("centrality.resolved_k_mean", float64(resolved)/float64(len(lat)))
	wall, ok := reportedWall(srv.out.String())
	e.rep.check(ok, "the server's report has no wall: field")
	e.rep.set("cli.reported_wall_s", wall.Seconds())
	e.rep.set("proc.cpu_s", cpu.Seconds())
	e.rep.set("proc.cpu_util", cpu.Seconds()/time.Since(srv.started).Seconds()/float64(goruntime.NumCPU()))
	return nil
}
