package core

import (
	"time"

	"aacc/internal/obs"
)

// engineObs is the engine's live-metrics instrument set, built once at
// construction when Options.Obs is set. Step holds a single nil check on
// the whole set: with no registry configured the hot path takes no
// timestamps and touches no atomics (pinned by TestStepAllocsSteadyState
// and the BenchmarkStepObsOverhead pair).
type engineObs struct {
	collect    *obs.Histogram
	exchange   *obs.Histogram
	install    *obs.Histogram
	strategies *obs.Histogram

	steps        *obs.Counter
	stepFailures *obs.Counter
	rowsSent     *obs.Counter
	rowsChanged  *obs.Counter
	messages     *obs.Counter

	step      *obs.Gauge
	residual  *obs.Gauge
	converged *obs.Gauge
	workers   *obs.Gauge

	// Per-phase shard-imbalance histograms (max/mean shard wall-clock
	// ratio), observed by runShards when Workers > 1: IA, and every
	// mutation-time sweep (edge additions, invalidations, reseeds).
	imbIA     *obs.Histogram
	imbReseed *obs.Histogram
}

// shardImbalanceBuckets is the bucket layout of aacc_engine_shard_imbalance:
// the max/mean shard time ratio is >= 1 by construction (1 = perfectly
// balanced) and at most the shard count when one shard carries everything.
var shardImbalanceBuckets = []float64{1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10}

func newEngineObs(reg *obs.Registry) *engineObs {
	phase := func(name string) *obs.Histogram {
		return reg.Histogram("aacc_engine_phase_seconds",
			"Wall-clock duration of each RC-step phase.",
			obs.DefDurationBuckets, obs.L("phase", name))
	}
	imb := func(name string) *obs.Histogram {
		return reg.Histogram("aacc_engine_shard_imbalance",
			"Max/mean shard wall-clock ratio of each worker-pool phase (1 = perfectly balanced; recorded only with Workers > 1).",
			shardImbalanceBuckets, obs.L("phase", name))
	}
	return &engineObs{
		collect:    phase("collect"),
		exchange:   phase("exchange"),
		install:    phase("install_relax"),
		strategies: phase("strategies"),

		steps:        reg.Counter("aacc_engine_steps_total", "RC steps performed."),
		stepFailures: reg.Counter("aacc_engine_step_failures_total", "RC steps aborted by an undeliverable exchange round (state rolled back, step retried later)."),
		rowsSent:     reg.Counter("aacc_engine_rows_sent_total", "Boundary DV rows sent across all RC steps."),
		rowsChanged:  reg.Counter("aacc_engine_rows_changed_total", "Local DV rows changed across all RC steps."),
		messages:     reg.Counter("aacc_engine_messages_total", "Exchange messages sent across all RC steps."),

		step:      reg.Gauge("aacc_engine_step", "Current RC step count."),
		residual:  reg.Gauge("aacc_engine_residual_rows", "Rows changed by the last RC step — the convergence residual (0 at the fixpoint)."),
		converged: reg.Gauge("aacc_engine_converged", "1 once the analysis reached its fixpoint, else 0."),
		workers:   reg.Gauge("aacc_engine_workers", "Configured intra-processor worker-pool size (Options.Workers)."),

		imbIA:     imb("ia"),
		imbReseed: imb("reseed"),
	}
}

// shardImbIA (and siblings) return the per-phase shard-imbalance histogram,
// or nil when metrics are disabled — runShards takes no timestamps on nil,
// keeping the disabled hot path free of clock reads.
func (e *Engine) shardImbIA() *obs.Histogram {
	if e.om == nil {
		return nil
	}
	return e.om.imbIA
}

func (e *Engine) shardImbReseed() *obs.Histogram {
	if e.om == nil {
		return nil
	}
	return e.om.imbReseed
}

// histCollect (and siblings) are nil-receiver-safe accessors for the phase
// histograms, so Step can instrument phases when either metrics or a tracer
// is enabled without branching on both.
func (m *engineObs) histCollect() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.collect
}

func (m *engineObs) histExchange() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.exchange
}

func (m *engineObs) histInstall() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.install
}

func (m *engineObs) histStrategies() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.strategies
}

// phaseDone finishes one instrumented RC-step phase: the duration since t
// lands in h (nil-safe) and, when a tracer is set, a span keyed by the trace
// correlation key goes to it. Returns the next phase's start.
func (e *Engine) phaseDone(h *obs.Histogram, name string, key uint64, t time.Time) time.Time {
	now := time.Now()
	d := now.Sub(t)
	h.Observe(d.Seconds())
	if e.opts.Tracer != nil {
		e.opts.Tracer.Span(obs.Span{Trace: key, Component: "engine", Name: name, Start: t, Dur: d})
	}
	return now
}

// stepDone folds one StepReport into the counters and gauges.
func (m *engineObs) stepDone(rep StepReport) {
	m.steps.Inc()
	m.rowsSent.Add(float64(rep.RowsSent))
	m.rowsChanged.Add(float64(rep.RowsChanged))
	m.messages.Add(float64(rep.MessagesSent))
	m.step.Set(float64(rep.Step))
	m.residual.Set(float64(rep.RowsChanged))
	if rep.Converged {
		m.converged.Set(1)
	} else {
		m.converged.Set(0)
	}
}
