// Package dist is the multi-process deployment of the analysis: one
// coordinator process owns the anytime session surface (stepping, queries,
// the mutation log) and drives N worker processes over real sockets. Each
// worker hosts a contiguous slice of the simulated processors on a
// runtime.Remote and exchanges boundary rows with its peers directly over a
// transport.PeerMesh; the coordinator never relays row data on the hot path —
// it only sequences commands, arbitrates each exchange's two-phase commit
// barrier and absorbs worker failures into the session's degraded mode.
//
// The control protocol runs over one TCP connection per worker, framed with
// the same record format as exchange traffic (transport.WriteRecord /
// ReadRecord): each direction numbers its records independently from zero, so
// a lost or reordered message is a hard protocol error, never a silent skip.
// Connections open with the versioned transport hello — two binaries built
// from different protocol revisions refuse each other at the first byte
// rather than corrupting an analysis halfway through.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/transport"
)

// Control message kinds. The first payload byte of every record names the
// message; the rest is the JSON body (mReportData: the binary row format of
// runtime.EncodeRows).
const (
	mJoin         byte = iota + 1 // worker → coordinator: request admission
	mReject                       // coordinator → worker: admission denied
	mAssign                       // coordinator → worker: index, topology, replay log
	mReady                        // worker → coordinator: engine built, replay done (resultBody)
	mStep                         // coordinator → worker: run one RC step
	mMutate                       // coordinator → worker: apply a batch of mutations
	mResync                       // coordinator → worker: queue every resident row for full resend
	mReport                       // coordinator → worker: dump resident distance rows
	mReportData                   // worker → coordinator: binary row payload
	mResult                       // worker → coordinator: command outcome (resultBody)
	mExchStatus                   // worker → coordinator: local exchange outcome (barrier vote)
	mExchDecision                 // coordinator → worker: global exchange verdict
	mShutdown                     // coordinator → worker: exit cleanly
)

// msgName returns a human-readable message name for error strings.
func msgName(kind byte) string {
	names := map[byte]string{
		mJoin: "join", mReject: "reject", mAssign: "assign", mReady: "ready",
		mStep: "step", mMutate: "mutate", mResync: "resync", mReport: "report",
		mReportData: "report-data", mResult: "result",
		mExchStatus: "exch-status", mExchDecision: "exch-decision",
		mShutdown: "shutdown",
	}
	if n, ok := names[kind]; ok {
		return n
	}
	return fmt.Sprintf("unknown(%d)", kind)
}

// joinBody is a worker's admission request. Everything in it is verified
// against the coordinator's own configuration: a worker that loaded a
// different graph or was launched with different analysis parameters would
// silently corrupt the deterministic partition every process must agree on.
type joinBody struct {
	MeshAddr    string // the worker's peer-mesh listen address
	Fingerprint uint64 // base-graph fingerprint (Fingerprint)
	P           int
	Seed        int64
	Partitioner string
	N, M        int // base-graph live vertices and edges
}

type rejectBody struct{ Reason string }

// assignBody installs a worker's place in the cluster. Replay is the full
// mutation log a rejoining worker applies to its freshly built engine before
// going live. The engine is not converged, so every deletion in it takes the
// row wipe, which needs no cluster collective.
type assignBody struct {
	Index              int
	Workers            []string // mesh addresses by worker index
	Owner              []int    // processor → worker index
	Lo, Hi             int      // this worker's resident processor range
	BaseSeq            uint32
	Replay             []Op
	RoundTimeoutMillis int64
}

type stepBody struct{ Seq uint32 }

// mutateBody carries one committed-prefix batch of mutations: the worker
// applies Ops in order and stops at the first failure, leaving the prefix
// applied — the same transactional shape as the engine's own batch apply.
// Converged is the coordinator's verdict that the whole cluster is at the
// fixpoint; the worker hands it to its engine (runtime.Remote.SetConverged)
// so every worker picks the same deletion invalidation.
type mutateBody struct {
	Seq       uint32
	Converged bool
	Ops       []Op
}

type resyncBody struct{ Seq uint32 }

// resultBody is a worker's reply to assign/step/mutate/resync: the outcome
// plus the state summary the coordinator uses for its divergence checks
// (NextSeq, Step, N, M, Converged must agree across workers).
type resultBody struct {
	Err string `json:",omitempty"`
	// FailedOp counts the mutate batch ops that committed before Err
	// (meaningful only when Err is set on an mMutate reply): the index of
	// the op that failed while applying, or 0 when the batch was rejected
	// whole by validation and nothing was applied.
	FailedOp     int `json:",omitempty"`
	NextSeq      uint32
	Step         int
	Converged    bool
	N, M         int
	RowsSent     int           `json:",omitempty"`
	RowsChanged  int           `json:",omitempty"`
	MessagesSent int           `json:",omitempty"`
	Stats        cluster.Stats `json:",omitempty"`
	// Metrics is the worker's compact metric snapshot, piggybacked on every
	// ready/result reply. The coordinator re-exports it as
	// per-worker-labeled aacc_cluster_worker_* families, so one scrape of
	// the coordinator covers the whole deployment.
	Metrics *wireMetrics `json:",omitempty"`
	// Spans are the worker-side spans of this command, relayed into the
	// coordinator's trace keyed by the command seq.
	Spans []wireSpan `json:",omitempty"`
}

// wireMetrics is a worker's federated metric snapshot: cheap,
// runtime-derived health figures a coordinator scrape should surface
// without having to reach every worker's own obs endpoint.
type wireMetrics struct {
	UptimeSeconds     float64 `json:",omitempty"`
	HeapBytes         uint64  `json:",omitempty"`
	Goroutines        int     `json:",omitempty"`
	PoolWorkers       int     `json:",omitempty"`
	ResidentProcs     int     `json:",omitempty"`
	StepFailures      float64 `json:",omitempty"`
	WireRounds        float64 `json:",omitempty"`
	WireRoundFailures float64 `json:",omitempty"`
	WireRetries       float64 `json:",omitempty"`
}

// wireSpan is one worker-side span carried on a result reply. The trace
// key is implicit (the command's seq); Start is Unix microseconds so the
// wire form stays compact and timezone-free.
type wireSpan struct {
	Name           string
	StartUnixMicro int64
	DurMicros      int64
	Err            string `json:",omitempty"`
}

type statusBody struct {
	OK  bool
	Err string `json:",omitempty"`
}

type decisionBody struct {
	Commit bool
	Reason string `json:",omitempty"`
}

// Op is the wire image of one core.Mutation — the unit of a mutate command
// and of the coordinator's replay log. Only the edge kinds travel: vertex and
// repartition mutations have no cluster implementation (the resident
// processor ranges are fixed at formation).
type Op struct {
	Kind  core.MutationKind
	Edges []graph.EdgeTriple `json:",omitempty"`
	Pairs [][2]graph.ID      `json:",omitempty"`
}

// opFromMutation lowers one typed core mutation to its wire op, copying the
// payload (the op outlives the call in the replay log).
func opFromMutation(m *core.Mutation) (Op, error) {
	switch m.Kind {
	case core.MutNone, core.MutEdgeAdd, core.MutEdgeDelete, core.MutSetWeight:
		return Op{
			Kind:  m.Kind,
			Edges: append([]graph.EdgeTriple(nil), m.Edges...),
			Pairs: append([][2]graph.ID(nil), m.Pairs...),
		}, nil
	}
	return Op{}, fmt.Errorf("dist: %s mutations are not supported in a multi-process cluster", m.Kind)
}

// batchOf lifts decoded wire ops back to the typed batch a worker's engine
// applies. Anything a hostile peer could put in an op is rejected by the
// engine's own validation.
func batchOf(ops []Op) *core.Batch {
	b := &core.Batch{Ops: make([]core.Mutation, len(ops))}
	for i, op := range ops {
		b.Ops[i] = core.Mutation{Kind: op.Kind, Edges: op.Edges, Pairs: op.Pairs}
	}
	return b
}

// Fingerprint hashes a graph's identifier space and edge multiset (FNV-1a
// over the deterministic Edges order). Workers and coordinator compare
// fingerprints of their independently loaded base graphs at join time.
func Fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [12]byte
	putU32 := func(off int, v uint32) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	}
	putU32(0, uint32(g.NumIDs()))
	putU32(4, uint32(g.NumVertices()))
	h.Write(b[:8])
	for _, ed := range g.Edges() {
		putU32(0, uint32(ed.U))
		putU32(4, uint32(ed.V))
		putU32(8, uint32(ed.W))
		h.Write(b[:12])
	}
	return h.Sum64()
}

// conn is one control connection: record framing with independent
// per-direction sequence counters. Not safe for concurrent use — the
// protocol is strictly request/response per connection.
type conn struct {
	c        net.Conn
	br       *bufio.Reader
	sendSeq  uint32
	recvSeq  uint32
	maxFrame int
}

func newConn(c net.Conn, maxFrame int) *conn {
	if maxFrame <= 0 {
		maxFrame = transport.Config{}.Normalize().MaxFrame
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 1<<16), maxFrame: maxFrame}
}

// send frames kind+body as the next outbound record. A zero deadline means
// no write timeout.
func (cn *conn) send(kind byte, body any, deadline time.Time) error {
	var payload []byte
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("dist: encoding %s: %w", msgName(kind), err)
		}
		payload = enc
	}
	return cn.sendRaw(kind, payload, deadline)
}

// sendRaw frames kind plus a pre-encoded payload.
func (cn *conn) sendRaw(kind byte, payload []byte, deadline time.Time) error {
	if err := cn.c.SetWriteDeadline(deadline); err != nil {
		return err
	}
	buf := make([]byte, 1+len(payload))
	buf[0] = kind
	copy(buf[1:], payload)
	seq := cn.sendSeq
	cn.sendSeq++
	if err := transport.WriteRecord(cn.c, seq, buf); err != nil {
		return fmt.Errorf("dist: sending %s: %w", msgName(kind), err)
	}
	return nil
}

// recv reads the next inbound record and returns its kind and body bytes.
// A zero deadline blocks indefinitely (the worker's idle command wait).
func (cn *conn) recv(deadline time.Time) (byte, []byte, error) {
	if err := cn.c.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	seq := cn.recvSeq
	payload, err := transport.ReadRecord(cn.br, seq, cn.maxFrame)
	if err != nil {
		return 0, nil, err
	}
	cn.recvSeq++
	if len(payload) < 1 {
		return 0, nil, fmt.Errorf("dist: empty control record %d", seq)
	}
	return payload[0], payload[1:], nil
}

// expect reads the next record and requires one of the given kinds,
// decoding its JSON body into out (when out is non-nil).
func (cn *conn) expect(deadline time.Time, out any, kinds ...byte) (byte, error) {
	kind, body, err := cn.recv(deadline)
	if err != nil {
		return 0, err
	}
	for _, k := range kinds {
		if kind != k {
			continue
		}
		if out != nil {
			if err := json.Unmarshal(body, out); err != nil {
				return 0, fmt.Errorf("dist: decoding %s: %w", msgName(kind), err)
			}
		}
		return kind, nil
	}
	return 0, fmt.Errorf("dist: unexpected %s message", msgName(kind))
}

func (cn *conn) Close() error { return cn.c.Close() }
