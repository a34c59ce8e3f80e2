package runtime

import (
	"encoding/binary"
	"fmt"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/obs"
)

// Partial is implemented by runtimes that host only a slice of the
// simulated processors in this process (a worker in a multi-process
// deployment). The engine probes for it: phases still build bookkeeping for
// every processor — determinism requires the same partition everywhere — but
// per-row state and query results exist only for resident processors.
type Partial interface {
	// Resident reports whether processor p's data lives in this process.
	Resident(p int) bool
}

// RowBroadcaster is implemented by runtimes that can all-gather
// whole-row payloads across processes. The engine's dynamic-update paths use
// it when a mutation needs rows owned by processors that are not resident
// here (edge endpoints on another worker's partition).
type RowBroadcaster interface {
	// BroadcastRows shares this process's contribution (rows owned by
	// resident processors) and returns the union of every process's
	// contribution, this one's included.
	BroadcastRows(local map[graph.ID][]int32) (map[graph.ID][]int32, error)
}

// RemoteTransport is the collective substrate a Remote runtime drives: a
// mesh between worker processes. transport.PeerMesh implements it. Sequence
// numbers are supplied by the caller so every process stamps the same
// collective identically.
type RemoteTransport interface {
	RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error)
	AllGather(seq uint32, payload []byte) ([][]byte, error)
	Close() error
}

// Remote is the multi-process execution runtime: this process hosts the
// contiguous processor range [lo,hi) of a P-processor analysis, compute
// phases run only for the resident range, and every exchange is serialised
// by the codec and carried across the worker mesh. The full engine (same
// graph, same partition) is built in every process; Remote is what confines
// the actual data and work to the resident slice.
//
// Sequencing and atomicity are owned by the coordinator: SetBaseSeq installs
// the round sequence each command was stamped with, and the optional Barrier
// hook lets the process vote on each exchange's outcome before the engine
// commits it, so either every worker installs a round or every worker rolls
// it back.
type Remote struct {
	*cluster.Cluster
	lo, hi int
	codec  cluster.WireCodec
	tr     RemoteTransport

	// seq is the sequence number for the next collective. It is written by
	// SetBaseSeq before each engine call and read/advanced by the
	// collectives that call (exchange, all-gather); the engine serialises
	// those, so no lock is needed.
	seq uint32

	// barrier, when set, is consulted after every exchange attempt with the
	// local outcome; it returns the global verdict (nil = commit). The
	// worker wires it to the coordinator's step-barrier round trip.
	barrier func(local error) error

	// detached suppresses cross-process collectives in BroadcastRows: a
	// rejoining worker replaying the mutation log runs alone and must not
	// wait on a mesh round nobody else is running.
	detached bool
}

var (
	_ Runtime        = (*Remote)(nil)
	_ Partial        = (*Remote)(nil)
	_ RowBroadcaster = (*Remote)(nil)
	_ Observable     = (*Remote)(nil)
)

// NewRemote builds the runtime for one worker hosting processors [lo,hi) of
// a p-processor analysis.
func NewRemote(p, lo, hi int, model logp.Params, codec cluster.WireCodec, tr RemoteTransport) (*Remote, error) {
	if lo < 0 || hi > p || lo >= hi {
		return nil, fmt.Errorf("runtime: resident range [%d,%d) invalid for %d processors", lo, hi, p)
	}
	if codec == nil || tr == nil {
		return nil, fmt.Errorf("runtime: NewRemote needs a codec and a transport")
	}
	return &Remote{Cluster: cluster.New(p, model), lo: lo, hi: hi, codec: codec, tr: tr}, nil
}

// Resident implements Partial.
func (r *Remote) Resident(p int) bool { return p >= r.lo && p < r.hi }

// SetBaseSeq installs the coordinator-assigned sequence number for the next
// collective. Call before each engine operation that was stamped with one.
func (r *Remote) SetBaseSeq(seq uint32) { r.seq = seq }

// NextSeq returns the sequence number the next collective will use — after
// an engine operation, the value the coordinator should resume from.
func (r *Remote) NextSeq() uint32 { return r.seq }

func (r *Remote) takeSeq() uint32 {
	s := r.seq
	r.seq++
	return s
}

// SetBarrier installs the per-exchange commit barrier.
func (r *Remote) SetBarrier(fn func(local error) error) { r.barrier = fn }

// SetDetached toggles replay mode: while detached, BroadcastRows returns
// only the local contribution and no mesh round runs.
func (r *Remote) SetDetached(v bool) { r.detached = v }

// Parallel runs fn for the resident processors only and accounts the
// section's modelled parallel time as the slowest resident processor. The
// other workers run their own ranges concurrently in their own processes.
func (r *Remote) Parallel(fn func(proc int)) { r.ParallelRange(r.lo, r.hi, fn) }

// Exchange implements the personalised all-to-all across the worker mesh:
// resident rows are encoded and shipped, resident destination cells come
// back decoded; the rest of the matrix lives in the other processes. When a
// barrier is installed, the local outcome is submitted to it and its global
// verdict replaces the local one — an aborted round returns an error even if
// this worker's slice was delivered.
func (r *Remote) Exchange(out [][]*cluster.Mail) ([][]*cluster.Mail, error) {
	in, sizes, err := exchangeRange(r.Cluster, r.codec, r.lo, r.hi, out, func(frames [][][]byte) ([][][]byte, error) {
		return r.tr.RoundTrip(r.takeSeq(), frames)
	})
	if r.barrier != nil {
		if verdict := r.barrier(err); verdict != nil {
			return nil, verdict
		}
	}
	if err != nil {
		// With a barrier, a commit verdict over a local failure is a
		// protocol bug; do not install a half-round.
		return nil, err
	}
	r.AccountExchange(sizes)
	return in, nil
}

// EncodeRows serialises a distance-row map — the all-gather payload and the
// coordinator protocol's row-report format: u32 count, then per row
// u32 id | u32 len | len × u32 distances.
func EncodeRows(rows map[graph.ID][]int32) []byte {
	size := 4
	for _, row := range rows {
		size += 8 + 4*len(row)
	}
	buf := make([]byte, 4, size)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(rows)))
	for id, row := range rows {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(row)))
		buf = append(buf, hdr[:]...)
		for _, d := range row {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(d))
			buf = append(buf, b[:]...)
		}
	}
	return buf
}

// DecodeRows parses an EncodeRows payload into the given map.
func DecodeRows(buf []byte, into map[graph.ID][]int32) error {
	if len(buf) < 4 {
		return fmt.Errorf("runtime: short row payload (%d bytes)", len(buf))
	}
	count := binary.LittleEndian.Uint32(buf[0:4])
	off := 4
	for i := uint32(0); i < count; i++ {
		if len(buf)-off < 8 {
			return fmt.Errorf("runtime: truncated row header")
		}
		id := graph.ID(binary.LittleEndian.Uint32(buf[off : off+4]))
		n := int(binary.LittleEndian.Uint32(buf[off+4 : off+8]))
		off += 8
		if n < 0 || len(buf)-off < 4*n {
			return fmt.Errorf("runtime: truncated row %d", id)
		}
		row := make([]int32, n)
		for j := 0; j < n; j++ {
			row[j] = int32(binary.LittleEndian.Uint32(buf[off : off+4]))
			off += 4
		}
		into[id] = row
	}
	return nil
}

// BroadcastRows implements RowBroadcaster over the mesh's worker-level
// all-gather. Each worker contributes the rows its resident processors own;
// every worker returns the union. While detached (mutation-log replay on a
// lone rejoining worker) the local contribution is returned as-is.
func (r *Remote) BroadcastRows(local map[graph.ID][]int32) (map[graph.ID][]int32, error) {
	if r.detached {
		return local, nil
	}
	start := time.Now()
	payload := EncodeRows(local)
	gathered, err := r.tr.AllGather(r.takeSeq(), payload)
	if err != nil {
		r.AccountCompute(time.Since(start))
		return nil, fmt.Errorf("runtime: row all-gather: %w", err)
	}
	all := make(map[graph.ID][]int32, len(local)*len(gathered))
	for id, row := range local {
		all[id] = row
	}
	for w, buf := range gathered {
		if buf == nil || len(buf) == len(payload) && &buf[0] == &payload[0] {
			continue // our own contribution, already merged
		}
		if err := DecodeRows(buf, all); err != nil {
			return nil, fmt.Errorf("runtime: row all-gather from worker %d: %w", w, err)
		}
		r.AccountPointToPoint(len(buf))
	}
	r.AccountCompute(time.Since(start))
	return all, nil
}

// SetObs mirrors the embedded cluster's accounting and the mesh transport's
// wire counters into reg.
func (r *Remote) SetObs(reg *obs.Registry) {
	r.Cluster.SetObs(reg)
	if ob, ok := r.tr.(Observable); ok {
		ob.SetObs(reg)
	}
}

// Close tears the mesh transport down.
func (r *Remote) Close() error { return r.tr.Close() }
