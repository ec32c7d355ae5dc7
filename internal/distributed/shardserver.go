package distributed

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/distributed/wire"
	"repro/internal/metric"
)

// ShardServer serves one shard's segments over the wire protocol — the
// process behind cmd/rbc-shard. It starts empty and generic: the
// coordinator pushes the shard's segments (MsgLoad) at
// Cluster.Distribute, after which MsgScan requests run the exact same
// shard.scan the in-process cluster runs, so answers over TCP are
// bit-identical to loopback by construction.
//
// Connections are handled concurrently and each carries strict
// request/reply framing. shard.scan is stateless (pooled scratch, no
// shard mutation), so concurrent scans need no locking beyond the
// shard-state swap at load time.
type ShardServer struct {
	maxFrame int

	mu     sync.Mutex
	sh     *shard
	epoch  uint32 // generation of the loaded state; scans must match it
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewShardServer returns an empty shard server awaiting a MsgLoad.
func NewShardServer() *ShardServer {
	return &ShardServer{maxFrame: wire.MaxFrameBytes, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close; any other accept failure is returned as-is.
func (s *ShardServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClusterClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting, tears down open connections (in-flight requests
// fail transport-side and are retried or surfaced by the coordinator's
// policy) and waits for handlers to exit.
func (s *ShardServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// Loaded reports whether shard state has been pushed yet.
func (s *ShardServer) Loaded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sh != nil
}

func (s *ShardServer) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *ShardServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	for {
		mt, body, err := wire.ReadFrame(conn, s.maxFrame)
		if err != nil {
			// Includes clean remote close, torn frames and CRC failures:
			// the stream is unsynchronized either way, so drop the
			// connection and let the client retry on a fresh one.
			return
		}
		var reply []byte
		switch mt {
		case wire.MsgPing:
			reply = wire.EncodeEmpty(wire.MsgPong)
		case wire.MsgLoad:
			reply = s.handleLoad(body)
		case wire.MsgScan:
			reply = s.handleScan(body)
		default:
			reply = wire.EncodeErr(fmt.Sprintf("unsupported message type %d", mt))
		}
		if err := wire.WriteFrame(conn, reply); err != nil {
			return
		}
	}
}

func (s *ShardServer) handleLoad(body []byte) []byte {
	st, err := wire.DecodeShardState(body)
	if err != nil {
		return wire.EncodeErr("bad shard state: " + err.Error())
	}
	sh, err := shardFromState(st)
	if err != nil {
		return wire.EncodeErr("bad shard state: " + err.Error())
	}
	s.mu.Lock()
	s.sh = sh
	s.epoch = st.Epoch
	s.mu.Unlock()
	return wire.EncodeEmpty(wire.MsgLoadOK)
}

func (s *ShardServer) handleScan(body []byte) []byte {
	s.mu.Lock()
	sh, epoch := s.sh, s.epoch
	s.mu.Unlock()
	if sh == nil {
		return wire.EncodeErr("no shard state loaded")
	}
	req, err := wire.DecodeScanRequest(body)
	if err != nil {
		return wire.EncodeErr("bad scan request: " + err.Error())
	}
	if req.Epoch != epoch {
		// The scan was planned against a different segment layout than
		// this replica holds (a rebalance one side has not seen yet).
		// Answering would merge candidates from the wrong segments;
		// refusing makes the coordinator fail over to a current replica.
		return wire.EncodeErr(fmt.Sprintf("stale epoch: scan routed at epoch %d, shard loaded at epoch %d", req.Epoch, epoch))
	}
	if err := validateScan(sh, req); err != nil {
		return wire.EncodeErr(err.Error())
	}
	rp := sh.scan(shardRequest{
		qs:          req.Qs,
		segs:        req.Segs,
		dists:       req.Dists,
		bounds:      req.Bounds,
		k:           req.K,
		includeReps: req.IncludeReps,
	})
	return wire.EncodeScanReply(&wire.ScanReply{
		Shard:     rp.sid,
		Evals:     rp.evals,
		EmptyWins: rp.emptyWins,
		KNN:       rp.knn,
	})
}

// errBadScan marks every request validateScan refuses.
var errBadScan = errors.New("bad scan request")

// validateScan rejects, wrapping errBadScan, requests that are
// structurally inconsistent or carry what no coordinator sends, before
// they reach shard.scan, which (as an internal hot path) indexes without
// bounds checks of its own. The wire decoder already guarantees the
// cross-field length invariants (Qs vs Segs, Dists vs total entries).
func validateScan(sh *shard, req *wire.ScanRequest) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", errBadScan, fmt.Sprintf(format, args...))
	}
	if req.Dim != sh.dim {
		return bad("query dim %d, shard dim %d", req.Dim, sh.dim)
	}
	if req.K <= 0 {
		return bad("k %d", req.K)
	}
	if len(req.Qs) != len(req.Segs)*sh.dim {
		return bad("%d query floats for %d queries of dim %d", len(req.Qs), len(req.Segs), sh.dim)
	}
	if req.Bounds != nil && len(req.Bounds) != len(req.Segs) {
		return bad("%d bounds for %d queries", len(req.Bounds), len(req.Segs))
	}
	if req.Wins != nil {
		return bad("[dLo, dHi] windows are not served; routed scans send representative distances")
	}
	nseg := len(sh.offsets) - 1
	total := 0
	for _, segs := range req.Segs {
		total += len(segs)
		for _, seg := range segs {
			if seg < 0 || seg >= nseg {
				return bad("segment %d out of range (shard holds %d)", seg, nseg)
			}
		}
	}
	if req.Dists == nil {
		return nil
	}
	if len(req.Dists) != total {
		return bad("%d representative distances for %d (query, segment) pairs", len(req.Dists), total)
	}
	if req.Bounds == nil {
		return bad("representative distances without bounds")
	}
	if sh.segDists == nil {
		return bad("routed scan against a shard loaded without segment distances")
	}
	for p, d := range req.Dists {
		if !(d >= 0) {
			return bad("representative distance %v at entry %d", d, p)
		}
	}
	return nil
}

// shardFromState reconstructs a servable shard from its wire state. The
// gathered layout crosses the wire verbatim (float32/float64 bit
// patterns preserved), so the rebuilt shard scans byte-identical data
// with the same exact-grade kernel the coordinator built.
func shardFromState(st *wire.ShardState) (*shard, error) {
	m, err := st.Metric.Metric()
	if err != nil {
		return nil, err
	}
	return &shard{
		id:       st.ID,
		dim:      st.Dim,
		ker:      metric.NewKernel(m),
		repIDs:   st.RepIDs,
		offsets:  st.Offsets,
		ids:      st.IDs,
		isRep:    st.IsRep,
		gather:   st.Gather,
		segDists: st.SegDists,
	}, nil
}

// stateOf snapshots a shard into its wire form (the MsgLoad payload),
// stamped with the epoch the receiving replica must serve scans for.
func stateOf(sh *shard, spec wire.MetricSpec, epoch uint32) *wire.ShardState {
	return &wire.ShardState{
		ID:       sh.id,
		Dim:      sh.dim,
		Epoch:    epoch,
		Metric:   spec,
		RepIDs:   sh.repIDs,
		Offsets:  sh.offsets,
		IDs:      sh.ids,
		IsRep:    sh.isRep,
		Gather:   sh.gather,
		SegDists: sh.segDists,
	}
}
