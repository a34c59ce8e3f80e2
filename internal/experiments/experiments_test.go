package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{N: 800, P: 8, Seed: 99}
}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestIDsAndDescribe(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("registered %d experiments", len(ids))
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Fatalf("experiment %s has no description", id)
		}
	}
	if Describe("nope") != "" {
		t.Fatal("phantom description")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("expected error")
	}
}

func TestFig4ShapesAndRenders(t *testing.T) {
	res, err := Run("fig4", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("fig4 rows: %d", len(res.Table.Rows))
	}
	// Paper shape: anytime below restart at every injection step.
	for _, row := range res.Table.Rows {
		anytime := parseCell(t, row[1])
		restart := parseCell(t, row[2])
		if anytime >= restart {
			t.Fatalf("anytime %.3f not below restart %.3f in row %v", anytime, restart, row)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("render missing title")
	}
}

func TestFig5Runs(t *testing.T) {
	res, err := Run("fig5", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("fig5 rows: %d", len(res.Table.Rows))
	}
	for _, row := range res.Table.Rows {
		for _, cell := range row[2:] {
			if parseCell(t, cell) <= 0 {
				t.Fatalf("non-positive time in %v", row)
			}
		}
	}
}

func TestFig7CutEdgeOrdering(t *testing.T) {
	res, err := Run("fig7", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Columns: ..., Repartition-S, CutEdge-PS, RoundRobin-PS. On the
	// largest community-structured batch, round robin must create at
	// least as many new cut edges as CutEdge-PS, and Repartition-S the
	// fewest.
	last := res.Table.Rows[len(res.Table.Rows)-1]
	rep := parseCell(t, last[2])
	ce := parseCell(t, last[3])
	rr := parseCell(t, last[4])
	if rr < ce {
		t.Fatalf("RoundRobin-PS cut %d below CutEdge-PS %d", int(rr), int(ce))
	}
	if rep > rr {
		t.Fatalf("Repartition-S cut %d above RoundRobin-PS %d", int(rep), int(rr))
	}
}

func TestFig8Runs(t *testing.T) {
	cfg := tiny()
	cfg.N = 600 // keep the 4 rates x 4 methods sweep quick
	res, err := Run("fig8", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("fig8 rows: %d", len(res.Table.Rows))
	}
	// Restart must be the most expensive method at every rate.
	for _, row := range res.Table.Rows {
		restart := parseCell(t, row[2])
		for _, cell := range row[3:] {
			if parseCell(t, cell) >= restart {
				t.Fatalf("restart not slowest in row %v", row)
			}
		}
	}
}

func TestEA1Shape(t *testing.T) {
	res, err := Run("ea1", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Table.Rows {
		if parseCell(t, row[1]) >= parseCell(t, row[2]) {
			t.Fatalf("edge-add anytime not below restart: %v", row)
		}
	}
}

func TestED1Runs(t *testing.T) {
	res, err := Run("ed1", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("ed1 rows: %d", len(res.Table.Rows))
	}
}

func TestED2Runs(t *testing.T) {
	cfg := tiny()
	res, err := Run("ed2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("ed2 rows: %d", len(res.Table.Rows))
	}
}

func TestQual1Monotone(t *testing.T) {
	res, err := Run("qual1", tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table.Rows
	if len(rows) < 2 {
		t.Fatalf("qual1 rows: %d", len(rows))
	}
	// Final step must be exact.
	final := rows[len(rows)-1]
	if parseCell(t, final[1]) < 0.999 || parseCell(t, final[2]) < 0.999 {
		t.Fatalf("final quality not exact: %v", final)
	}
	if parseCell(t, final[3]) != 0 || parseCell(t, final[4]) != 0 {
		t.Fatalf("final error not zero: %v", final)
	}
	// Unknown pairs must be non-increasing (monotone anytime property).
	prev := parseCell(t, rows[0][4])
	for _, row := range rows[1:] {
		cur := parseCell(t, row[4])
		if cur > prev {
			t.Fatalf("unknown pairs increased: %v", row)
		}
		prev = cur
	}
}

func TestLogP1Runs(t *testing.T) {
	res, err := Run("logp1", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("logp1 rows: %d", len(res.Table.Rows))
	}
}

func TestExt1ScalingRuns(t *testing.T) {
	cfg := tiny()
	cfg.N = 400
	res, err := Run("ext1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 5 {
		t.Fatalf("ext1 rows: %d", len(res.Table.Rows))
	}
	// Memory per processor must strictly decrease with P.
	prev := parseCell(t, res.Table.Rows[0][5])
	for _, row := range res.Table.Rows[1:] {
		cur := parseCell(t, row[5])
		if cur >= prev {
			t.Fatalf("MB/proc not decreasing: %v", row)
		}
		prev = cur
	}
}

func TestExt3RefreshAblation(t *testing.T) {
	cfg := tiny()
	cfg.N = 400
	res, err := Run("ext3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("ext3 rows: %d", len(res.Table.Rows))
	}
}

func TestExt4WireBytesAgree(t *testing.T) {
	cfg := tiny()
	cfg.N = 300
	res, err := Run("ext4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("ext4 rows: %d", len(res.Table.Rows))
	}
	mem := parseCell(t, res.Table.Rows[0][1])
	wire := parseCell(t, res.Table.Rows[1][1])
	// The in-memory byte estimate should agree with the measured frames
	// within 30% (framing overhead, delta headers).
	if wire <= 0 || mem <= 0 {
		t.Fatalf("zero bytes: mem=%g wire=%g", mem, wire)
	}
	if ratio := wire / mem; ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("estimate vs wire bytes diverge: %.2f", ratio)
	}
}

func TestExt5FamiliesRun(t *testing.T) {
	cfg := tiny()
	cfg.N = 300
	res, err := Run("ext5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("ext5 rows: %d", len(res.Table.Rows))
	}
	for _, row := range res.Table.Rows {
		if parseCell(t, row[3]) <= 0 || parseCell(t, row[4]) <= 0 {
			t.Fatalf("non-positive time: %v", row)
		}
	}
}

func TestVerboseProgressGoesToOut(t *testing.T) {
	cfg := tiny()
	var buf bytes.Buffer
	cfg.Out = &buf
	cfg.Verbose = true
	if _, err := Run("fig4", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# fig4") || !strings.Contains(out, "Figure 4") {
		t.Fatalf("missing progress/table in output:\n%s", out)
	}
}

func TestScaledNeverZero(t *testing.T) {
	c := Config{N: 10}.withDefaults()
	if c.scaled(3) != 1 {
		t.Fatalf("scaled(3) = %d", c.scaled(3))
	}
}
