package aacc

// End-to-end integration: one long-lived analysis lives through everything
// the system supports — streamed community arrivals, edge churn, a change-log
// replay, a processor crash, a checkpoint/restore onto a fresh cluster, a
// repartition — and at every quiescent point the distances equal the
// sequential oracle and the closeness ranking is exact.

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"aacc/internal/centrality"
	"aacc/internal/changelog"
	"aacc/internal/cli"
	"aacc/internal/core"
	"aacc/internal/experiments"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/runtime"
	"aacc/internal/sssp"
	"aacc/internal/workload"
)

func assertOracle(t *testing.T, e *core.Engine, stage string) {
	t.Helper()
	want := sssp.APSP(e.Graph(), 0)
	got := e.Distances()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", stage, len(got), len(want))
	}
	for v, wrow := range want {
		grow := got[v]
		for u := range wrow {
			if grow[u] != wrow[u] {
				t.Fatalf("%s: d(%d,%d) = %d, want %d", stage, v, u, grow[u], wrow[u])
			}
		}
	}
}

func TestIntegrationFullLifecycle(t *testing.T) {
	add, err := workload.ExtractAddition(400, 60, 123, gen.Config{MaxWeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(add.Base, core.Options{P: 8, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: initial convergence.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "initial")

	// Phase 2: streamed community arrivals (CutEdge-PS) with edge churn
	// interleaved, never waiting for convergence between waves.
	inc := workload.NewIncremental(add.Batch, 4)
	ps := &core.CutEdgePS{Seed: 123}
	wave := 0
	for inc.Remaining() > 0 {
		wave++
		e.Step()
		if _, err := inc.Inject(e, ps); err != nil {
			t.Fatal(err)
		}
		if wave == 2 {
			adds := workload.RandomEdgeAdditions(e.Graph(), 10, 3, 77)
			if err := e.ApplyBatch(&core.Batch{Ops: []core.Mutation{core.EdgeAdd(adds...)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "after streamed arrivals")

	// Phase 3: a change-log replay (named vertices, weight change, delete).
	log := "@1\naddvertex hub\nattach hub 0 1\nattach hub 100 1\nattach hub 200 1\n@2\nsetweight 0 1 5\ndeledge 2 3\n"
	cl, err := changelog.Parse(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	rep := changelog.NewReplayer(cl, ps)
	if err := rep.ReplayAll(e); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "after change-log replay")
	hub, ok := rep.Resolve("hub")
	if !ok || !e.Graph().Has(hub) {
		t.Fatal("hub vertex missing after replay")
	}

	// Phase 4: processor crash and checkpoint-free recovery.
	if _, err := e.FailProcessor(3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "after failure recovery")

	// Phase 5: checkpoint, restore onto a fresh engine, keep going.
	var ckpt bytes.Buffer
	if err := e.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadCheckpoint(&ckpt, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, restored, "after restore")

	// Phase 6: the restored engine rebalances and stays exact.
	if err := restored.ApplyBatch(&core.Batch{Ops: []core.Mutation{core.RepartitionOp(nil)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, restored, "after repartition")

	// Final: closeness ranking equals the oracle's and paths realise
	// distances.
	scores := restored.Scores()
	exact := centrality.FromDistances(sssp.APSP(restored.Graph(), 0),
		restored.Graph().Vertices(), restored.Graph().NumIDs())
	for _, v := range restored.Graph().Vertices() {
		d := scores.Classic[v] - exact.Classic[v]
		if d > 1e-12 || d < -1e-12 {
			t.Fatalf("closeness of %d: %g vs %g", v, scores.Classic[v], exact.Classic[v])
		}
	}
	top := centrality.TopK(scores, scores.Classic, 1)
	p, err := restored.Path(top[0], hub)
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := restored.PathLength(p); l != restored.Distance(top[0], hub) {
		t.Fatal("path does not realise distance")
	}
}

// TestIntegrationWireLifecycle runs a condensed lifecycle over the real TCP
// wire: dynamics + convergence with serialised exchanges.
func TestIntegrationWireLifecycle(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 321, gen.Config{MaxWeight: 2})
	e, err := core.New(g, core.Options{P: 6, Seed: 321, Runtime: runtime.WireTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	batch := &core.VertexBatch{
		Count:    4,
		Internal: []core.BatchEdge{{A: 0, B: 1, W: 1}, {A: 2, B: 3, W: 1}},
		External: []core.AttachEdge{{New: 0, To: 10, W: 1}, {New: 2, To: 150, W: 2}},
	}
	if err := e.ApplyBatch(&core.Batch{Ops: []core.Mutation{
		core.VertexAdd(batch, &core.RoundRobinPS{}),
		core.EdgeDelete([2]graph.ID{0, 1}),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "wire lifecycle")
}

// TestDocsNameOnlyWhatExists: the docs, the verify skill, the Makefile and CI
// cite scripts, make targets, benchmarks, packages and experiment ids by
// name, and three files declare a Go version. Every cited name must exist
// and the versions must agree, so deleting or renaming one cannot leave a
// dangling citation behind.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	submatches := func(re, text string) []string {
		var out []string
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(text, -1) {
			out = append(out, m[1])
		}
		return out
	}

	// Benchmarks of the root module and of the nested bench/ module.
	var benchmarks []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build
		}
		if strings.HasSuffix(path, "_test.go") {
			benchmarks = append(benchmarks, submatches(`(?m)^func (Benchmark\w+)\(`, read(path))...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, ci := read("Makefile"), read(".github/workflows/ci.yml")
	targets := submatches(`(?m)^([a-z][\w-]*):`, makefile)

	isFile := func(p string) bool { st, err := os.Stat(p); return err == nil && st.Mode().IsRegular() }
	isDir := func(p string) bool { st, err := os.Stat(p); return err == nil && st.IsDir() }
	checks := []struct {
		what, re string
		ok       func(string) bool
	}{
		{"script", `(scripts/[\w-]+\.sh)`, isFile},
		{"make target", "(?:`|run: )make ([a-z][\\w-]*)", func(s string) bool { return slices.Contains(targets, s) }},
		{"benchmark", `\b(Benchmark[A-Z]\w*)`, func(s string) bool { return slices.Contains(benchmarks, s) }},
		{"package", `\b(internal/[a-z]\w*)`, isDir},
	}
	ids := experiments.IDs()
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile", ".github/workflows/ci.yml"} {
		text := read(doc)
		for _, c := range checks {
			for _, name := range submatches(c.re, text) {
				if !c.ok(name) {
					t.Errorf("%s cites %s %q, which does not exist", doc, c.what, name)
				}
			}
		}
		// -experiment takes one id, a comma list, or a first..last range;
		// <id> and a trailing ... are placeholders.
		for _, arg := range submatches("(?:^|[\\s`(])-experiment ([\\w.,<>]+)", text) {
			for _, id := range strings.FieldsFunc(arg, func(r rune) bool { return r == ',' || r == '.' }) {
				if !strings.HasPrefix(id, "<") && !slices.Contains(ids, id) {
					t.Errorf("%s cites experiment %q, which is not registered", doc, id)
				}
			}
		}
	}

	// Metric families cited in the docs and smoke scripts are registered by
	// the program. Prefixes ending in "_" (the aacc_engine_* and
	// aacc_cluster_worker_{up,...} shorthands) and grep anchors (^aacc_...)
	// are not family names.
	var code strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".")) {
			return fs.SkipDir
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			code.WriteString(read(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, scripts...) {
		for _, m := range regexp.MustCompile(`(\^?)(aacc_[a-z_]+)`).FindAllStringSubmatch(read(doc), -1) {
			fam := m[2]
			if m[1] != "" || strings.HasSuffix(fam, "_") {
				continue
			}
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				fam = strings.TrimSuffix(fam, suffix)
			}
			if !strings.Contains(code.String(), `"`+fam+`"`) && !strings.Contains(code.String(), `"`+m[2]+`"`) {
				t.Errorf("%s cites metric %q, which no program file registers", doc, m[2])
			}
		}
	}

	// Every -flag on an aacc command line in README.md or a smoke script is
	// one cli.Analysis defines.
	var help bytes.Buffer
	if err := cli.Analysis([]string{"-help"}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("aacc -help: %v", err)
	}
	flags := submatches(`(?m)^\s+-([\w-]+)`, help.String())
	command := regexp.MustCompile("(?:(?:^|[\\s(`/])aacc|\"\\$BIN\")\\s")
	for _, doc := range append([]string{"README.md"}, scripts...) {
		for _, line := range strings.Split(strings.ReplaceAll(read(doc), "\\\n", " "), "\n") {
			loc := command.FindStringIndex(line)
			if loc == nil {
				continue
			}
			rest := line[loc[1]:]
			if i := strings.IndexAny(rest, "|>&;`#"); i >= 0 {
				rest = rest[:i]
			}
			for _, tok := range strings.Fields(rest) {
				name, ok := strings.CutPrefix(tok, "-")
				if ok && name != "" && name[0] >= 'a' && name[0] <= 'z' && !slices.Contains(flags, name) {
					t.Errorf("%s runs aacc with %s, which is not a flag: %s", doc, tok, strings.TrimSpace(line))
				}
			}
		}
	}

	goLine := func(path string) string {
		t.Helper()
		v := submatches(`(?m)^go (\S+)$`, read(path))
		if len(v) != 1 {
			t.Fatalf("%s: %d go lines", path, len(v))
		}
		return v[0]
	}
	want := goLine("go.mod")
	if got := goLine("bench/go.mod"); got != want {
		t.Errorf("bench/go.mod says go %s, go.mod says go %s", got, want)
	}
	pins := submatches(`go-version: "?([\d.]+)"?`, ci)
	if len(pins) == 0 {
		t.Error("ci.yml pins no go-version")
	}
	for _, v := range pins {
		if v != want {
			t.Errorf("ci.yml pins go-version %s, go.mod says go %s", v, want)
		}
	}
}
