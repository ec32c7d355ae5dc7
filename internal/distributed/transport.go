package distributed

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/distributed/wire"
)

// ErrClusterClosed is returned by every query entry point after Close.
var ErrClusterClosed = errors.New("distributed: cluster is closed")

// DegradePolicy decides what a networked cluster does when a shard's
// whole replica set stays unreachable after the retry budget.
type DegradePolicy int

const (
	// DegradeFailFast (the default) fails the whole batch with a typed
	// *ShardError as soon as any contacted shard cannot answer.
	DegradeFailFast DegradePolicy = iota
	// DegradePartial merges the answers of the shards that did reply and
	// accounts the missing ones in QueryMetrics.FailedShards. Results may
	// silently miss neighbors held by the dead shard (every representative
	// is still seeded coordinator-side, so queries keep their rep-derived
	// candidates); callers opt in to that trade.
	DegradePartial
)

// ShardError reports a shard that could not serve a request after the
// transport's retry budget — for a replicated shard, after every
// replica in its set was tried. It wraps the final decisive error; Addr
// names the replica (or the comma-joined exhausted replica set).
type ShardError struct {
	Shard int
	Addr  string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("distributed: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// ShardNetStats accumulates one replica connection's transport counters
// (TCP transport only; the loopback transport reports none). With
// replication, Cluster.NetStats returns one entry per replica, in shard
// order with each shard's replicas in set order.
type ShardNetStats struct {
	Shard     int           // shard id this replica serves
	Addr      string        // replica address
	Requests  int64         // exchanges attempted (first attempts, not retries)
	Retries   int64         // extra attempts after a transient failure
	Failures  int64         // exchanges abandoned after the retry budget
	Hedged    int64         // attempts fired at this replica by the hedge timer
	HedgeWins int64         // hedged attempts at this replica that won the race
	Cancelled int64         // in-flight attempts cancelled because another replica won
	BytesSent int64         // frame bytes written on successful exchanges
	BytesRecv int64         // frame bytes read on successful exchanges
	RTT       time.Duration // summed request→reply time of successful exchanges
}

// transport carries one batched scan to one shard and returns its reply.
// Implementations: loopback (the in-process shards Build starts — the
// default, and the correctness oracle for the wire path) and
// tcpTransport (real sockets to rbc-shard replica processes).
type transport interface {
	scan(sid int, req *shardRequest) (shardReply, error)
	degrade() DegradePolicy
	netStats() []ShardNetStats
	close()
}

// loopback scans the cluster's in-process shards on the caller's
// goroutine (Cluster.finish already runs one per contacted shard). It
// reads c.shards at every call, so Rebalance's cutover reaches it.
type loopback struct {
	c *Cluster
}

func (l *loopback) scan(sid int, req *shardRequest) (shardReply, error) {
	return l.c.shards[sid].scan(*req), nil
}

func (l *loopback) degrade() DegradePolicy { return DegradeFailFast }

func (l *loopback) netStats() []ShardNetStats { return nil }

func (l *loopback) close() {}

// HedgeOptions configures hedged requests on a replicated networked
// cluster: after the hedge delay passes without an answer, the same
// scan is fired at the shard's next replica and the first reply wins
// (losers are cancelled). Replies are bit-identical across replicas by
// construction, so hedging never changes an answer — only who serves
// it, and how long the tail waits. The zero value disables hedging;
// hard failover (a replica conclusively failing) always walks the whole
// replica set regardless of these settings.
type HedgeOptions struct {
	// MaxHedges is the number of extra replicas one scan may contact
	// before the first answer arrives (0 disables hedging). Clamped to
	// the replica set size minus one.
	MaxHedges int
	// Delay is a fixed wait before each hedge fires. Zero selects the
	// adaptive delay: the p95 of each replica's observed exchange RTTs is
	// tracked over a sliding window, and the hedge fires after the
	// FASTEST replica's p95 (floored at 500µs) — so a persistently slow
	// primary cannot teach the cluster to wait for it, while a healthy
	// set hedges only past its own tail.
	Delay time.Duration
}

// The adaptive hedge delay's constants. hedgeQuantile is the RTT quantile
// it tracks. hedgeMinDelay floors it, so a burst of fast RTTs cannot make
// the cluster hedge every single request; before any replica has enough
// RTT samples the adaptive delay IS hedgeMinDelay — the cold start hedges
// eagerly and learns fast.
const (
	hedgeQuantile = 0.95
	hedgeMinDelay = 500 * time.Microsecond
)

// poolSize is the number of idle connections kept per replica. Fan-out
// opens extra connections freely; the pool only bounds what is kept warm.
const poolSize = 2

// TCPOptions configures the networked transport installed by
// Cluster.Distribute. The zero value means "all defaults".
type TCPOptions struct {
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request/reply exchange, connection
	// deadline included (default 30s). A shard that accepts but never
	// replies surfaces as a timeout error after this long, per attempt.
	RequestTimeout time.Duration
	// MaxAttempts is the total attempts per replica per request, first
	// try included (default 3). Only transient failures — connect
	// errors, IO errors, torn or corrupt frames — are retried; a shard
	// that answers with a MsgErr made a decision, which retrying cannot
	// change (the scan fails over to the next replica instead).
	MaxAttempts int
	// RetryBackoff is the sleep before the first retry, doubled each
	// further attempt (default 50ms).
	RetryBackoff time.Duration
	// Degrade picks the policy for shards whose whole replica set stays
	// unreachable after the retry budget (default DegradeFailFast).
	Degrade DegradePolicy
	// Hedge configures hedged requests across each shard's replica set
	// (default: hedging off; failover still walks the set).
	Hedge HedgeOptions
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	return o
}

// tcpTransport talks the wire protocol to the rbc-shard processes
// behind each shard's ordered replica set, with per-replica connection
// pooling, per-attempt deadlines, bounded retry with exponential
// backoff, hedged requests across the set, and hard failover that walks
// the whole set.
//
// The sets slice and each set's replicas slice are mutated only under
// the cluster's lifecycle write lock (Distribute, AddShardReplica,
// RemoveShardReplica, Rebalance) while every scan holds the read side,
// so scans never observe a torn replica set.
type tcpTransport struct {
	dim  int
	opts TCPOptions
	clk  clock
	sets []*replicaSet
}

// replicaSet is one shard's ordered replicas. Order matters: replica 0
// is always attempted first, later entries serve hedges and failover.
type replicaSet struct {
	sid      int
	replicas []*tcpShard
}

type tcpShard struct {
	sid  int
	addr string
	pool chan net.Conn
	rtt  *rttQuantile

	mu    sync.Mutex
	stats ShardNetStats
}

func newTCPTransport(dim int, assignment [][]string, opts TCPOptions) *tcpTransport {
	t := &tcpTransport{dim: dim, opts: opts.withDefaults(), clk: realClock{}}
	for sid, addrs := range assignment {
		rs := &replicaSet{sid: sid}
		for _, addr := range addrs {
			rs.replicas = append(rs.replicas, t.newReplica(sid, addr))
		}
		t.sets = append(t.sets, rs)
	}
	return t
}

func (t *tcpTransport) newReplica(sid int, addr string) *tcpShard {
	return &tcpShard{
		sid:  sid,
		addr: addr,
		pool: make(chan net.Conn, poolSize),
		rtt:  newRTTQuantile(hedgeQuantile),
	}
}

// hedgeDelay resolves the current hedge trigger for one replica set:
// the fixed HedgeOptions.Delay, or the fastest replica's tracked RTT
// quantile floored by hedgeMinDelay (hedgeMinDelay alone while cold — see
// HedgeOptions).
func (t *tcpTransport) hedgeDelay(rs *replicaSet) time.Duration {
	if t.opts.Hedge.Delay > 0 {
		return t.opts.Hedge.Delay
	}
	best := time.Duration(-1)
	for _, r := range rs.replicas {
		if est, ok := r.rtt.estimate(); ok && (best < 0 || est < best) {
			best = est
		}
	}
	if best < hedgeMinDelay {
		best = hedgeMinDelay
	}
	return best
}

func (t *tcpTransport) scan(sid int, req *shardRequest) (shardReply, error) {
	rs := t.sets[sid]
	frame := wire.EncodeScanRequest(&wire.ScanRequest{
		Dim:         t.dim,
		K:           req.k,
		Epoch:       req.epoch,
		IncludeReps: req.includeReps,
		Qs:          req.qs,
		Segs:        req.segs,
		Bounds:      req.bounds,
		Dists:       req.dists,
	})
	reps := rs.replicas
	rp, out, err := hedgedScan(len(reps), t.opts.Hedge.MaxHedges,
		func() time.Duration { return t.hedgeDelay(rs) }, t.clk,
		func(i int, cx *canceller) (shardReply, error) {
			return t.scanReplica(reps[i], frame, cx)
		})
	for _, i := range out.hedged {
		reps[i].bump(func(s *ShardNetStats) { s.Hedged++ })
		if i == out.winner {
			reps[i].bump(func(s *ShardNetStats) { s.HedgeWins++ })
		}
	}
	for _, i := range out.cancelled {
		reps[i].bump(func(s *ShardNetStats) { s.Cancelled++ })
	}
	if err != nil {
		return shardReply{}, &ShardError{Shard: sid, Addr: rs.addrList(),
			Err: fmt.Errorf("all %d replicas exhausted: %w", len(reps), err)}
	}
	return rp, nil
}

// scanReplica runs the framed scan exchange against one replica (with
// that replica's full retry budget) and decodes the reply.
func (t *tcpTransport) scanReplica(s *tcpShard, frame []byte, cx *canceller) (shardReply, error) {
	mt, body, err := t.requestOn(s, frame, cx)
	if err != nil {
		return shardReply{}, err
	}
	if mt != wire.MsgScanReply {
		return shardReply{}, &ShardError{Shard: s.sid, Addr: s.addr,
			Err: fmt.Errorf("unexpected reply message type %d", mt)}
	}
	rep, err := wire.DecodeScanReply(body)
	if err != nil {
		return shardReply{}, &ShardError{Shard: s.sid, Addr: s.addr, Err: err}
	}
	// The shard echoes the id it was loaded with; trusting the local sid
	// for result routing keeps a mislabeled reply from corrupting merges.
	if rep.Shard != s.sid {
		return shardReply{}, &ShardError{Shard: s.sid, Addr: s.addr,
			Err: fmt.Errorf("reply from shard %d, want %d", rep.Shard, s.sid)}
	}
	return shardReply{sid: s.sid, knn: rep.KNN, evals: rep.Evals, emptyWins: rep.EmptyWins}, nil
}

func (rs *replicaSet) addrList() string {
	addrs := make([]string, len(rs.replicas))
	for i, r := range rs.replicas {
		addrs[i] = r.addr
	}
	return strings.Join(addrs, ",")
}

// load pushes one shard-state frame to every replica in sid's set and
// waits for each ack; the first failure aborts and names the replica.
func (t *tcpTransport) load(sid int, frame []byte) error {
	for _, s := range t.sets[sid].replicas {
		if err := t.loadReplica(s, frame); err != nil {
			return err
		}
	}
	return nil
}

// loadReplica pushes one shard-state frame to one replica.
func (t *tcpTransport) loadReplica(s *tcpShard, frame []byte) error {
	mt, _, err := t.requestOn(s, frame, nil)
	if err != nil {
		return err
	}
	if mt != wire.MsgLoadOK {
		return &ShardError{Shard: s.sid, Addr: s.addr,
			Err: fmt.Errorf("unexpected load reply message type %d", mt)}
	}
	return nil
}

// ping round-trips a liveness probe off shard sid's first replica.
func (t *tcpTransport) ping(sid int) error {
	s := t.sets[sid].replicas[0]
	mt, _, err := t.requestOn(s, wire.EncodeEmpty(wire.MsgPing), nil)
	if err != nil {
		return err
	}
	if mt != wire.MsgPong {
		return &ShardError{Shard: sid, Addr: s.addr,
			Err: fmt.Errorf("unexpected ping reply message type %d", mt)}
	}
	return nil
}

func (s *tcpShard) bump(f func(*ShardNetStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// requestOn runs one framed exchange against one replica with the retry
// policy: transient failures (connect errors, IO errors, torn/corrupt
// frames) are retried up to MaxAttempts with doubling backoff; a
// decoded MsgErr is a remote decision and fails immediately (failover,
// not retry, is the caller's remedy). A cancellation from the hedging
// race aborts between and during attempts without charging a failure.
// Every failure path returns a typed *ShardError naming the replica.
func (t *tcpTransport) requestOn(s *tcpShard, frame []byte, cx *canceller) (byte, []byte, error) {
	s.bump(func(st *ShardNetStats) { st.Requests++ })
	var lastErr error
	backoff := t.opts.RetryBackoff
	for attempt := 0; attempt < t.opts.MaxAttempts; attempt++ {
		if cx != nil && cx.abandoned() {
			return 0, nil, errScanCancelled
		}
		if attempt > 0 {
			s.bump(func(st *ShardNetStats) { st.Retries++ })
			time.Sleep(backoff)
			backoff *= 2
		}
		mt, body, err := s.exchange(frame, t.opts, cx)
		if err == nil {
			if mt == wire.MsgErr {
				rerr := wire.DecodeErr(body)
				s.bump(func(st *ShardNetStats) { st.Failures++ })
				return 0, nil, &ShardError{Shard: s.sid, Addr: s.addr, Err: rerr}
			}
			return mt, body, nil
		}
		if cx != nil && cx.abandoned() {
			// The "failure" was our own connection close; don't count it.
			return 0, nil, errScanCancelled
		}
		lastErr = err
	}
	s.bump(func(st *ShardNetStats) { st.Failures++ })
	return 0, nil, &ShardError{Shard: s.sid, Addr: s.addr, Err: lastErr}
}

// exchange performs one request/reply round trip on a pooled or fresh
// connection under the per-attempt deadline. Any error poisons the
// connection (it is closed, not returned to the pool): the protocol is
// strict request/reply, so a torn exchange leaves the stream
// unsynchronized. The live connection is registered on cx so the
// hedging race can cancel this exchange mid-I/O, and released before
// the connection returns to the pool so a late cancel cannot poison a
// pooled connection.
func (s *tcpShard) exchange(frame []byte, opts TCPOptions, cx *canceller) (byte, []byte, error) {
	conn, err := s.get(opts)
	if err != nil {
		return 0, nil, err
	}
	if cx != nil && !cx.register(conn) {
		conn.Close()
		return 0, nil, errScanCancelled
	}
	start := time.Now()
	if err := conn.SetDeadline(start.Add(opts.RequestTimeout)); err != nil {
		conn.Close()
		return 0, nil, err
	}
	if err := wire.WriteFrame(conn, frame); err != nil {
		conn.Close()
		return 0, nil, err
	}
	mt, body, err := wire.ReadFrame(conn, wire.MaxFrameBytes)
	if err != nil {
		conn.Close()
		return 0, nil, err
	}
	if cx != nil {
		cx.release()
	}
	s.put(conn)
	rtt := time.Since(start)
	s.rtt.observe(rtt)
	s.mu.Lock()
	s.stats.BytesSent += int64(len(frame))
	s.stats.BytesRecv += int64(8 + 2 + len(body)) // header + version/type + body
	s.stats.RTT += rtt
	s.mu.Unlock()
	return mt, body, nil
}

func (s *tcpShard) get(opts TCPOptions) (net.Conn, error) {
	select {
	case conn := <-s.pool:
		return conn, nil
	default:
	}
	return net.DialTimeout("tcp", s.addr, opts.DialTimeout)
}

func (s *tcpShard) put(conn net.Conn) {
	conn.SetDeadline(time.Time{})
	select {
	case s.pool <- conn:
	default:
		conn.Close()
	}
}

// drain closes every pooled idle connection.
func (s *tcpShard) drain() {
	for {
		select {
		case conn := <-s.pool:
			conn.Close()
		default:
			return
		}
	}
}

func (t *tcpTransport) degrade() DegradePolicy { return t.opts.Degrade }

func (t *tcpTransport) netStats() []ShardNetStats {
	var out []ShardNetStats
	for _, rs := range t.sets {
		for _, s := range rs.replicas {
			s.mu.Lock()
			st := s.stats
			s.mu.Unlock()
			st.Shard = rs.sid
			st.Addr = s.addr
			out = append(out, st)
		}
	}
	return out
}

func (t *tcpTransport) close() {
	for _, rs := range t.sets {
		for _, s := range rs.replicas {
			s.drain()
		}
	}
}
