// Package experiments regenerates every figure of the paper's evaluation
// (and the edge-change suites of the titled paper) on the simulated cluster.
// Each experiment is a scaled replica: the paper ran 16 processors on graphs
// of 50,000 vertices; the default Config scales the graph down (keeping 16
// simulated processors) and scales every change count by the same ratio, so
// the figures' shapes — who wins, by what factor, where the crossovers sit —
// are preserved while a full suite runs in minutes on a laptop.
package experiments

import (
	"fmt"
	"io"
	"time"

	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/metrics"
	"aacc/internal/partition"
)

// PaperN is the vertex count of the paper's experiments; change counts are
// scaled by N/PaperN.
const PaperN = 50000

// Config parameterises one experiment run.
type Config struct {
	// N is the base graph size (paper: 50,000; default 2,000).
	N int
	// P is the number of simulated processors (paper and default: 16).
	P int
	// Seed drives all generators and partitioners.
	Seed int64
	// MaxWeight > 1 draws random integer edge weights.
	MaxWeight int32
	// Verbose prints per-run progress to Out.
	Verbose bool
	// Out receives the rendered tables (defaults to no output when nil;
	// the caller can also render the returned Result itself).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 2000
	}
	if c.P == 0 {
		c.P = 16
	}
	if c.Seed == 0 {
		c.Seed = 20160516 // IPDPSW 2016
	}
	return c
}

// scaled converts a paper-scale change count to this run's graph size.
func (c Config) scaled(paperCount int) int {
	x := paperCount * c.N / PaperN
	if x < 1 {
		x = 1
	}
	return x
}

// Result is one regenerated figure: a table whose rows mirror the paper's
// series, plus free-form notes about the expected shape.
type Result struct {
	ID    string
	Table metrics.Table
	Notes []string
}

// Render writes the table and notes to w.
func (r *Result) Render(w io.Writer) error {
	if err := r.Table.Write(w); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// An experiment regenerates one figure.
type experiment struct {
	id   string
	desc string
	run  func(Config) (*Result, error)
}

var registry = []experiment{
	{"fig4", "baseline restart vs anytime (RoundRobin-PS), vertex adds at RC0/RC4/RC8", Fig4},
	{"fig5", "strategy comparison for vertex additions at RC0", Fig5},
	{"fig6", "strategy comparison for vertex additions at RC8", Fig6},
	{"fig7", "new cut-edges created by each strategy", Fig7},
	{"fig8", "incremental vertex additions over 10 RC steps", Fig8},
	{"ea1", "edge additions: anytime vs restart at RC0/RC4/RC8", EA1},
	{"ed1", "edge deletions: anytime vs restart at RC0/RC4/RC8", ED1},
	{"ed2", "edge deletion batch-size sweep", ED2},
	{"qual1", "anytime quality trajectory per RC step", Qual1},
	{"logp1", "LogP analytic model vs measured phase costs", LogP1},
	{"ext1", "strong scaling of the static analysis over processor counts", Ext1},
	{"ext3", "eager local refresh ablation (paper's optional FW strategy)", Ext3},
	{"ext4", "in-memory exchange vs real TCP loopback wire", Ext4},
	{"ext5", "anytime vs restart robustness across graph families", Ext5},
}

// IDs lists the registered experiment identifiers in run order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.desc
		}
	}
	return ""
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	for _, e := range registry {
		if e.id == id {
			res, err := e.run(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			if cfg.Out != nil {
				if err := res.Render(cfg.Out); err != nil {
					return nil, err
				}
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// --- shared helpers ---

// baseGraph generates the experiment's scale-free base graph (the paper used
// undirected scale-free graphs from Pajek).
func (c Config) baseGraph() *graph.Graph {
	return gen.BarabasiAlbert(c.N, 2, c.Seed, gen.Config{MaxWeight: c.MaxWeight})
}

// newEngine builds an engine over g with the multilevel (METIS-substitute)
// DD partitioner.
func (c Config) newEngine(g *graph.Graph) (*core.Engine, error) {
	return core.New(g, core.Options{
		P:           c.P,
		Seed:        c.Seed,
		Partitioner: partition.Multilevel{Seed: c.Seed},
	})
}

// runSteps advances the engine k RC steps (stopping early at convergence).
func runSteps(e *core.Engine, k int) {
	for i := 0; i < k && !e.Converged(); i++ {
		e.Step()
	}
}

// simMinutes converts simulated time to the paper's y-axis unit.
func simMinutes(d time.Duration) float64 { return d.Minutes() }

// simSeconds is the scaled-replica-friendly unit used in the tables.
func simSeconds(d time.Duration) float64 { return d.Seconds() }

// applyBatchRaw adds a batch directly to a graph (the baseline-restart path,
// which has no incremental machinery). It returns the new vertex IDs.
func applyBatchRaw(g *graph.Graph, b *core.VertexBatch) []graph.ID {
	first := g.AddVertices(b.Count)
	ids := make([]graph.ID, b.Count)
	for i := range ids {
		ids[i] = first + graph.ID(i)
	}
	for _, ed := range b.Internal {
		g.AddEdge(ids[ed.A], ids[ed.B], ed.W)
	}
	for _, ed := range b.External {
		g.AddEdge(ids[ed.New], ed.To, ed.W)
	}
	return ids
}

func (c Config) progress(format string, args ...any) {
	if c.Verbose && c.Out != nil {
		fmt.Fprintf(c.Out, "# "+format+"\n", args...)
	}
}
