package anytime

import (
	"time"

	"aacc/internal/obs"
)

// sessionObs is the session's live-metrics instrument set, built when
// Options.Engine.Obs is set (the session and its engine share one
// registry). Queries are the only concurrent writers — their instruments
// are atomics; everything else is written from the orchestration goroutine.
type sessionObs struct {
	epoch     *obs.Gauge
	epochs    *obs.Counter
	publish   *obs.Histogram
	converged *obs.Gauge
	exhausted *obs.Gauge
	degraded  *obs.Gauge

	queries     *obs.Counter
	snapshotAge *obs.Histogram

	// Top-k serving instruments — written from query goroutines (the
	// registry's instruments are atomics, like the snapshot-query pair
	// above).
	topkQueries  *obs.Counter
	topkLatency  *obs.Histogram
	topkPruned   *obs.Histogram
	topkResolved *obs.Gauge

	mutations  *obs.Counter
	applyLat   *obs.Histogram
	queueDepth *obs.Gauge

	// Ingest-pipeline instruments. ingestDepth is written from producer
	// goroutines (push) as well as the orchestration goroutine, which the
	// atomic gauge supports. ingestUnits/ingestOps together give the
	// coalesce ratio (units/ops ≤ 1).
	ingestDepth *obs.Gauge
	ingestOps   *obs.Counter
	ingestUnits *obs.Counter
	batchSize   *obs.Histogram

	// budgetLeft / deadlineLeft stay nil unless the corresponding limit is
	// configured, so an unlimited session exposes no misleading zero.
	budgetLeft   *obs.Gauge
	deadlineLeft *obs.Gauge
}

// SnapshotAgeBuckets spans the expected age-at-read range: a busy session
// republishes every few milliseconds, an idle converged one serves the same
// snapshot for minutes.
var snapshotAgeBuckets = []float64{
	1e-3, 10e-3, 0.1, 0.5, 1, 5, 15, 60, 300, 1800,
}

// batchSizeBuckets spans singleton synchronous applies up to a full
// DefaultIngestQueue drain.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// fractionBuckets cover ratio-valued observations (pruned fraction).
var fractionBuckets = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}

func newSessionObs(reg *obs.Registry, opts Options) *sessionObs {
	m := &sessionObs{
		epoch:     reg.Gauge("aacc_session_epoch", "Current snapshot epoch."),
		epochs:    reg.Counter("aacc_session_epochs_total", "Snapshots published."),
		publish:   reg.Histogram("aacc_session_publish_seconds", "Epoch publication latency (deep-copying the engine state into an immutable snapshot).", nil),
		converged: reg.Gauge("aacc_session_converged", "1 once the current snapshot is at the fixpoint, else 0."),
		exhausted: reg.Gauge("aacc_session_exhausted", "1 once the step budget or deadline ran out, else 0."),
		degraded:  reg.Gauge("aacc_session_degraded", "1 while RC steps are failing to deliver their exchange round (the session serves the last good epoch and keeps retrying), else 0."),

		queries:     reg.Counter("aacc_session_queries_total", "Snapshot queries served."),
		snapshotAge: reg.Histogram("aacc_session_snapshot_age_seconds", "Age of the snapshot at each query (time since its publication).", snapshotAgeBuckets),

		topkQueries:  reg.Counter("aacc_session_topk_queries_total", "Bound-based top-k queries served."),
		topkLatency:  reg.Histogram("aacc_session_topk_query_seconds", "Top-k query latency (snapshot load plus bound-based ranking).", nil),
		topkPruned:   reg.Histogram("aacc_session_topk_pruned_fraction", "Fraction of candidate vertices pruned per top-k query (upper bound below the k-th lower bound).", fractionBuckets),
		topkResolved: reg.Gauge("aacc_session_topk_resolved_k", "Length of the confirmed prefix in the most recent top-k answer."),

		mutations:  reg.Counter("aacc_session_mutations_total", "Mutations applied through the serialized queue."),
		applyLat:   reg.Histogram("aacc_session_mutation_apply_seconds", "Mutation apply latency on the orchestration goroutine.", nil),
		queueDepth: reg.Gauge("aacc_session_queue_depth", "Commands enqueued or executing on the serialized queue."),

		ingestDepth: reg.Gauge("aacc_session_ingest_queue_depth", "Mutations waiting in the bounded ingest queue."),
		ingestOps:   reg.Counter("aacc_session_ingest_ops_total", "Mutations drained from the ingest queue."),
		ingestUnits: reg.Counter("aacc_session_ingest_units_total", "Coalesced apply units executed (units/ops is the coalesce ratio)."),
		batchSize:   reg.Histogram("aacc_session_ingest_batch_size", "Mutations drained per step-boundary batch.", batchSizeBuckets),
	}
	if opts.StepBudget > 0 {
		m.budgetLeft = reg.Gauge("aacc_session_step_budget_remaining", "RC steps left before the session exhausts its budget.")
		m.budgetLeft.Set(float64(opts.StepBudget))
	}
	if opts.Deadline > 0 {
		m.deadlineLeft = reg.Gauge("aacc_session_deadline_remaining_seconds", "Wall-clock seconds left before the session exhausts its deadline.")
		m.deadlineLeft.Set(opts.Deadline.Seconds())
	}
	return m
}

// published folds one snapshot publication into the gauges.
func (m *sessionObs) published(sn *Snapshot, took time.Duration) {
	m.epochs.Inc()
	m.epoch.Set(float64(sn.Epoch))
	m.publish.ObserveDuration(took)
	m.converged.Set(b2f(sn.Converged))
	m.exhausted.Set(b2f(sn.Exhausted))
	m.degraded.Set(b2f(sn.Degraded))
}

// limits refreshes the budget/deadline gauges (those that exist).
func (m *sessionObs) limits(stepsLeft int, deadlineLeft time.Duration) {
	if m.budgetLeft != nil {
		m.budgetLeft.Set(float64(max(stepsLeft, 0)))
	}
	if m.deadlineLeft != nil {
		m.deadlineLeft.Set(max(deadlineLeft, 0).Seconds())
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
