package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"aacc/internal/graph"
)

// Process handling for the two workloads that run the real aacc binary. Every
// wait is bounded: a child that hangs is killed, its log tail is printed, and
// the workload fails instead of stalling the set.

const (
	pollEvery   = 2 * time.Millisecond
	readyWithin = 30 * time.Second
	exitWithin  = 60 * time.Second
)

// buildAacc builds cmd/aacc into the checkout's .bench_build directory and
// reports the build time, which is the go build cache's doing after the first.
func (e *env) buildAacc() error {
	if err := os.MkdirAll(e.buildDir(), 0o755); err != nil {
		return err
	}
	bin := filepath.Join(e.buildDir(), "aacc")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aacc")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/aacc: %v\n%s", err, out)
	}
	e.aacc = bin
	e.rep.logf("built cmd/aacc in %.2fs", time.Since(t0).Seconds())
	if e.trace {
		e.rep.set("bench.build_s", time.Since(t0).Seconds())
	}
	return nil
}

// tempDir makes a scratch directory inside the checkout for graph files.
func (e *env) tempDir() (string, error) {
	if err := os.MkdirAll(e.buildDir(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.buildDir(), "run-")
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// child is one spawned aacc process with its captured output.
type child struct {
	name    string
	cmd     *exec.Cmd
	started time.Time
	out     *lockedBuffer // stdout and stderr, interleaved
	done    chan struct{} // closed once Wait returned
	err     error         // Wait's result, valid after done
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
	// firstSeen records when each watched marker first appeared in the output.
	watch map[string]time.Time
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.b.Write(p)
	for marker, at := range l.watch {
		if at.IsZero() && bytes.Contains(l.b.Bytes(), []byte(marker)) {
			l.watch[marker] = time.Now()
		}
	}
	return n, err
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func (l *lockedBuffer) seenAt(marker string) time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.watch[marker]
}

// spawn starts the aacc binary with args. markers are output substrings
// whose first appearance is timestamped.
func (e *env) spawn(name string, markers []string, args ...string) (*child, error) {
	c := &child{name: name, out: &lockedBuffer{watch: map[string]time.Time{}}, done: make(chan struct{})}
	for _, m := range markers {
		c.out.watch[m] = time.Time{}
	}
	c.cmd = exec.Command(e.aacc, args...)
	c.cmd.Stdout = c.out
	c.cmd.Stderr = c.out
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// wait waits for the child to exit by itself, killing it after the limit.
func (c *child) wait(limit time.Duration) error {
	select {
	case <-c.done:
		return c.err
	case <-time.After(limit):
		c.kill()
		return fmt.Errorf("%s did not exit within %v and was killed", c.name, limit)
	}
}

// kill ends the child now and reaps it.
func (c *child) kill() {
	select {
	case <-c.done:
		return
	default:
	}
	c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-c.done
}

// terminate sends SIGTERM and expects a clean exit.
func (c *child) terminate(limit time.Duration) error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	return c.wait(limit)
}

// usage returns the exited child's CPU time and peak RSS.
func (c *child) usage() (cpu time.Duration, rssMB float64) {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		return rusageOf(ru)
	}
	return 0, 0
}

// logTail returns the last n lines of the child's output, for failures.
func (c *child) logTail(n int) string {
	lines := strings.Split(strings.TrimRight(c.out.String(), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "--- " + c.name + " log tail ---\n" + strings.Join(lines, "\n")
}

// pollHTTP GETs url until it answers 200 or the limit passes, returning the
// body; it gives up at once if the child dies.
func pollHTTP(client *http.Client, c *child, url string, limit time.Duration) (string, error) {
	deadline := time.Now().Add(limit)
	for {
		body, status, err := get(client, url)
		if err == nil && status == http.StatusOK {
			return body, nil
		}
		select {
		case <-c.done:
			return "", fmt.Errorf("%s exited before %s answered: %v", c.name, url, c.err)
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not answer 200 within %v (last: status %d, err %v)", url, limit, status, err)
		}
		time.Sleep(pollEvery)
	}
}

func get(client *http.Client, url string) (body string, status int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), resp.StatusCode, err
}

// reportedWall extracts the "wall:" field of the binary's report footer.
func reportedWall(out string) (time.Duration, bool) {
	i := strings.LastIndex(out, "wall: ")
	if i < 0 {
		return 0, false
	}
	field, _, _ := strings.Cut(out[i+len("wall: "):], "\n")
	d, err := time.ParseDuration(strings.TrimSpace(field))
	return d, err == nil
}
