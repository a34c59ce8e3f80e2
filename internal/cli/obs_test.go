package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"aacc/internal/anytime"
	"aacc/internal/centrality"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestObsMuxEndpoints scrapes every observability route against a live
// instrumented session.
func TestObsMuxEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(120, 2, 11, gen.Config{})
	s, err := anytime.New(context.Background(), g, anytime.Options{
		Engine: core.Options{P: 4, Seed: 11, Obs: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obsMux(reg, s, nil))
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if body == "" {
		t.Fatal("/metrics empty")
	}
	// One scrape covers all three layers: engine phases, transport, session.
	for _, fam := range []string{
		"aacc_engine_phase_seconds_bucket",
		"aacc_engine_steps_total",
		"aacc_transport_bytes_total",
		"aacc_session_epoch ",
		"aacc_session_publish_seconds_count",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}

	code, body = get(t, srv.URL+"/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok epoch=") {
		t.Fatalf("/healthz = %d %q on a live session", code, body)
	}

	code, body = get(t, srv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	for _, want := range []string{"state:     converged", "rc steps:", "coverage:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}

	if code, _ := get(t, srv.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}

	// A converged session at fixpoint has (near-)full sampled coverage.
	known, total := sampleCoverage(s.Snapshot(), 64)
	if total == 0 || float64(known)/float64(total) < 0.5 {
		t.Errorf("coverage %d/%d at convergence", known, total)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d after Close, want 503", code)
	}
}

// syncBuffer lets the test read Analysis's output while it is still running.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAnalysisServeObsAddr drives the full flag path: -serve -obs-addr :0
// brings up the endpoint, -linger holds the settled session open, and a
// scrape of /metrics and /healthz succeeds against the bound port.
func TestAnalysisServeObsAddr(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Analysis([]string{"-n", "100", "-p", "4", "-serve",
			"-obs-addr", "127.0.0.1:0", "-linger", "5s", "-top", "2"}, &out)
	}()

	addrRE := regexp.MustCompile(`msg="observability endpoint up" addr=([0-9.]+:[0-9]+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint address never logged:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/metrics = %d, %d bytes", code, len(body))
	}
	for _, fam := range []string{"aacc_engine_phase_seconds", "aacc_transport_bytes_total", "aacc_session_epoch", "aacc_engine_steps_total"} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	if code, _ := get(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top 2 by closeness") {
		t.Fatalf("analysis report missing:\n%s", out.String())
	}
}

// TestAnalysisBatchObsAddr: with the -serve restriction lifted, a one-shot
// batch run exposes /metrics, /healthz, /statusz and /debug/events for its
// lifetime, with -linger holding the endpoint open after the run settles.
func TestAnalysisBatchObsAddr(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- Analysis([]string{"-n", "100", "-p", "4",
			"-obs-addr", "127.0.0.1:0", "-linger", "5s", "-top", "2"}, &out)
	}()

	addrRE := regexp.MustCompile(`msg="observability endpoint up" addr=([0-9.]+:[0-9]+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint address never logged:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The batch analysis races the scrape; wait for the report so the engine
	// families have data.
	reportDeadline := time.Now().Add(15 * time.Second)
	for !strings.Contains(out.String(), "top 2 by closeness") {
		if time.Now().After(reportDeadline) {
			t.Fatalf("batch analysis never finished:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, fam := range []string{"aacc_engine_phase_seconds", "aacc_build_info", "aacc_process_start_time_seconds"} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	if code, body := get(t, "http://"+addr+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q without a session", code, body)
	}
	if code, body := get(t, "http://"+addr+"/statusz"); code != http.StatusOK || !strings.Contains(body, "role:      single-process") {
		t.Fatalf("/statusz = %d:\n%s", code, body)
	}
	if code, body := get(t, "http://"+addr+"/debug/events"); code != http.StatusOK || !strings.HasPrefix(body, "[") {
		t.Fatalf("/debug/events = %d %q", code, body)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTopKEndpoint exercises GET /topk against a live session: default and
// explicit parameters, the bound/score agreement at convergence, clamping of
// hostile k values, parameter validation, and the no-session 503.
func TestTopKEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	g := gen.BarabasiAlbert(110, 2, 19, gen.Config{})
	s, err := anytime.New(context.Background(), g, anytime.Options{
		Engine: core.Options{P: 4, Seed: 19, Obs: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obsMux(reg, s, nil))
	defer srv.Close()

	code, body := get(t, srv.URL+"/topk?k=5&harmonic=true")
	if code != http.StatusOK {
		t.Fatalf("/topk status %d: %s", code, body)
	}
	var resp topkResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/topk not JSON: %v\n%s", err, body)
	}
	if resp.K != 5 || resp.Scoring != "harmonic" || !resp.Converged || len(resp.Entries) != 5 {
		t.Fatalf("/topk = %+v", resp)
	}
	if resp.Resolved != 5 || resp.Candidates != 110 {
		t.Fatalf("converged /topk resolved=%d candidates=%d", resp.Resolved, resp.Candidates)
	}
	scores := s.Snapshot().Scores()
	want := centrality.TopK(scores, scores.Harmonic, 5)
	for i, en := range resp.Entries {
		if en.V != want[i] || !en.Resolved || en.Lower != en.Score || en.Upper != en.Score {
			t.Fatalf("entry %d = %+v, want vertex %d resolved with collapsed bounds", i, en, want[i])
		}
	}

	// Defaults: k=10, harmonic scoring (harmonic degrades gracefully on
	// partial rows, so it is the natural mid-run serving default).
	code, body = get(t, srv.URL+"/topk")
	if code != http.StatusOK {
		t.Fatalf("/topk default status %d", code)
	}
	resp = topkResponse{}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.K != 10 || resp.Scoring != "harmonic" || len(resp.Entries) != 10 {
		t.Fatalf("/topk default = k=%d scoring=%q entries=%d", resp.K, resp.Scoring, len(resp.Entries))
	}
	if code, _ = get(t, srv.URL+"/topk?harmonic=false"); code != http.StatusOK {
		t.Fatalf("/topk?harmonic=false status %d", code)
	}

	// Hostile k values clamp instead of panicking or erroring.
	for _, q := range []string{"k=-1", "k=-1073741824", "k=1000000"} {
		code, body = get(t, srv.URL+"/topk?"+q)
		if code != http.StatusOK {
			t.Fatalf("/topk?%s status %d: %s", q, code, body)
		}
	}

	// Malformed parameters are a 400, not a 500.
	for _, q := range []string{"k=abc", "k=1e3", "harmonic=maybe"} {
		if code, _ = get(t, srv.URL+"/topk?"+q); code != http.StatusBadRequest {
			t.Fatalf("/topk?%s status %d, want 400", q, code)
		}
	}

	// Session-less processes (workers, batch runs) refuse with a 503.
	noSess := httptest.NewServer(obsMux(obs.NewRegistry(), nil, nil))
	defer noSess.Close()
	if code, _ = get(t, noSess.URL+"/topk"); code != http.StatusServiceUnavailable {
		t.Fatalf("session-less /topk status %d, want 503", code)
	}

	if got := reg.Counter("aacc_session_topk_queries_total", "").Value(); got < 5 {
		t.Errorf("topk_queries_total = %v after %d queries", got, 5)
	}
}
