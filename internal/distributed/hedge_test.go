package distributed

// Hedge-policy tests (PR 10): the hedging race under a fake clock
// (deterministic — no sleeps in the policy assertions), cancellation
// reaching the losing replica's socket, stats parity between hedged and
// unhedged runs, and the tail-latency win under an injected slow
// replica.

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/wire"
	"repro/internal/metric"
)

// fakeClock hands out controllable timer channels: fire(i) releases the
// i-th clk.After call. Now() is unused by the race but required by the
// interface.
type fakeClock struct {
	mu     sync.Mutex
	afters []chan time.Time
	delays []time.Duration
}

func (c *fakeClock) Now() time.Time { return time.Time{} }

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.afters = append(c.afters, ch)
	c.delays = append(c.delays, d)
	return ch
}

// fire releases the i-th After channel, waiting for it to be armed.
func (c *fakeClock) fire(t *testing.T, i int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.afters) > i {
			ch := c.afters[i]
			c.mu.Unlock()
			ch <- time.Time{}
			return
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timer %d never armed", i)
}

func (c *fakeClock) armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.afters)
}

// TestHedgeFiresOnlyPastDelay: the second replica is contacted only
// after the hedge timer fires, never before.
func TestHedgeFiresOnlyPastDelay(t *testing.T) {
	clk := &fakeClock{}
	launched := make(chan int, 4)
	release := make([]chan struct{}, 2)
	for i := range release {
		release[i] = make(chan struct{})
	}
	type res struct {
		rp  shardReply
		out hedgeOutcome
		err error
	}
	done := make(chan res, 1)
	go func() {
		rp, out, err := hedgedScan(2, 1, func() time.Duration { return 5 * time.Millisecond }, clk,
			func(i int, cx *canceller) (shardReply, error) {
				launched <- i
				<-release[i]
				return shardReply{sid: i}, nil
			})
		done <- res{rp, out, err}
	}()
	if got := <-launched; got != 0 {
		t.Fatalf("first launch was replica %d", got)
	}
	select {
	case i := <-launched:
		t.Fatalf("replica %d launched before the hedge delay", i)
	case <-time.After(50 * time.Millisecond):
	}
	clk.fire(t, 0)
	if got := <-launched; got != 1 {
		t.Fatalf("hedge launched replica %d", got)
	}
	close(release[1])
	r := <-done
	close(release[0])
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.out.winner != 1 || r.rp.sid != 1 {
		t.Fatalf("winner %d, reply sid %d; want the hedge (1)", r.out.winner, r.rp.sid)
	}
	if len(r.out.hedged) != 1 || r.out.hedged[0] != 1 {
		t.Fatalf("hedged=%v, want [1]", r.out.hedged)
	}
	if len(r.out.cancelled) != 1 || r.out.cancelled[0] != 0 {
		t.Fatalf("cancelled=%v, want [0]", r.out.cancelled)
	}
}

// TestHedgeMaxHedgesRespected: with a 3-replica set and MaxHedges 1,
// exactly one hedge timer is armed; the third replica is never
// contacted while the first two are merely slow.
func TestHedgeMaxHedgesRespected(t *testing.T) {
	clk := &fakeClock{}
	launched := make(chan int, 4)
	release := make([]chan struct{}, 3)
	for i := range release {
		release[i] = make(chan struct{})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hedgedScan(3, 1, func() time.Duration { return time.Millisecond }, clk,
			func(i int, cx *canceller) (shardReply, error) {
				launched <- i
				<-release[i]
				return shardReply{sid: i}, nil
			})
	}()
	<-launched // replica 0
	clk.fire(t, 0)
	<-launched // replica 1, the one allowed hedge
	select {
	case i := <-launched:
		t.Fatalf("replica %d launched past the hedge budget", i)
	case <-time.After(50 * time.Millisecond):
	}
	if n := clk.armed(); n != 1 {
		t.Fatalf("%d timers armed with a budget of 1", n)
	}
	close(release[0])
	<-done
	close(release[1])
}

// TestFailoverIgnoresHedgeBudget: with hedging disabled entirely, a
// replica that fails outright still falls over to the next one, through
// the whole set.
func TestFailoverIgnoresHedgeBudget(t *testing.T) {
	clk := &fakeClock{}
	var order []int
	var mu sync.Mutex
	rp, out, err := hedgedScan(3, 0, func() time.Duration { return time.Millisecond }, clk,
		func(i int, cx *canceller) (shardReply, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if i < 2 {
				return shardReply{}, errors.New("replica down")
			}
			return shardReply{sid: i}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.winner != 2 || rp.sid != 2 {
		t.Fatalf("winner %d, want 2", out.winner)
	}
	if len(out.hedged) != 0 {
		t.Fatalf("failover charged as hedge: %v", out.hedged)
	}
	if clk.armed() != 0 {
		t.Fatal("timer armed with hedging disabled")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("launch order %v", order)
	}
}

// TestHedgeAllReplicasFail: the first failure's error surfaces once the
// whole set is exhausted.
func TestHedgeAllReplicasFail(t *testing.T) {
	clk := &fakeClock{}
	first := errors.New("first failure")
	_, out, err := hedgedScan(2, 1, func() time.Duration { return time.Millisecond }, clk,
		func(i int, cx *canceller) (shardReply, error) {
			if i == 0 {
				return shardReply{}, first
			}
			return shardReply{}, errors.New("second failure")
		})
	if !errors.Is(err, first) {
		t.Fatalf("err=%v, want the first failure", err)
	}
	if out.winner != -1 {
		t.Fatalf("winner %d on total failure", out.winner)
	}
}

func TestRTTQuantileEstimate(t *testing.T) {
	q := newRTTQuantile(0.95)
	if _, ok := q.estimate(); ok {
		t.Fatal("estimate before any samples")
	}
	for i := 1; i <= rttQuantileMinSamples-1; i++ {
		q.observe(time.Duration(i) * time.Millisecond)
	}
	if _, ok := q.estimate(); ok {
		t.Fatal("estimate below the sample floor")
	}
	q.observe(8 * time.Millisecond)
	est, ok := q.estimate()
	if !ok {
		t.Fatal("no estimate at the sample floor")
	}
	// 8 samples 1..8ms, p=0.95 → index int(.95*7)=6 → 7ms.
	if est != 7*time.Millisecond {
		t.Fatalf("estimate %v, want 7ms", est)
	}
	// Flood the window with a new regime; the old samples must age out.
	for i := 0; i < rttQuantileWindow; i++ {
		q.observe(100 * time.Millisecond)
	}
	if est, _ := q.estimate(); est != 100*time.Millisecond {
		t.Fatalf("estimate %v after regime shift, want 100ms", est)
	}
}

// startStallingReplica serves the wire protocol but never answers a
// scan: it acks loads (so Distribute succeeds) and then sits on MsgScan
// until the client closes the connection, reporting each such death on
// the returned channel — the probe that cancellation really reached
// this replica's socket rather than just local state.
func startStallingReplica(t *testing.T) (string, chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dead := make(chan struct{}, 64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					mt, _, err := wire.ReadFrame(c, wire.MaxFrameBytes)
					if err != nil {
						return
					}
					switch mt {
					case wire.MsgLoad:
						if wire.WriteFrame(c, wire.EncodeEmpty(wire.MsgLoadOK)) != nil {
							return
						}
					case wire.MsgPing:
						if wire.WriteFrame(c, wire.EncodeEmpty(wire.MsgPong)) != nil {
							return
						}
					case wire.MsgScan:
						// Stall: the next read returns only when the peer
						// closes the connection.
						if _, err := c.Read(make([]byte, 1)); err != nil {
							dead <- struct{}{}
							return
						}
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), dead
}

// TestHedgeCancellationReachesLosingReplica: replica 0 stalls forever,
// the hedge wins on replica 1, and the loser's connection is actually
// closed (observed server-side), with the Hedged/HedgeWins/Cancelled
// counters attributing the race correctly.
func TestHedgeCancellationReachesLosingReplica(t *testing.T) {
	stallAddr, dead := startStallingReplica(t)
	fastAddrs, _ := startShardServers(t, 1)
	cl, _, queries := buildSmall(t, 401, 1)
	opts := fastOpts()
	opts.RequestTimeout = 30 * time.Second // only cancellation may end the stalled attempt
	opts.Hedge = HedgeOptions{MaxHedges: 1, Delay: 10 * time.Millisecond}
	if err := cl.DistributeReplicas([][]string{{stallAddr, fastAddrs[0]}}, opts); err != nil {
		t.Fatalf("DistributeReplicas: %v", err)
	}
	if _, _, err := cl.KNNBatch(queries, 3); err != nil {
		t.Fatalf("hedged KNNBatch: %v", err)
	}
	select {
	case <-dead:
	case <-time.After(10 * time.Second):
		t.Fatal("losing replica never saw its connection close")
	}
	stats := cl.NetStats()
	if len(stats) != 2 {
		t.Fatalf("%d stats entries for 2 replicas", len(stats))
	}
	if stats[0].Addr != stallAddr || stats[0].Cancelled == 0 {
		t.Fatalf("stalling replica stats %+v, want Cancelled > 0", stats[0])
	}
	if stats[1].Hedged == 0 || stats[1].HedgeWins == 0 {
		t.Fatalf("fast replica stats %+v, want Hedged and HedgeWins > 0", stats[1])
	}
}

// TestFailoverExhaustedSetNamed: when a shard's whole replica set is
// down, the fail-fast error names every replica tried.
func TestFailoverExhaustedSetNamed(t *testing.T) {
	cl, _, queries := buildSmall(t, 409, 1)
	addrs, servers := startShardServers(t, 2)
	if err := cl.DistributeReplicas([][]string{{addrs[0], addrs[1]}}, fastOpts()); err != nil {
		t.Fatalf("DistributeReplicas: %v", err)
	}
	servers[0].Close()
	servers[1].Close()
	_, _, err := cl.KNNBatch(queries, 3)
	var serr *ShardError
	if !errors.As(err, &serr) {
		t.Fatalf("err=%v, want *ShardError", err)
	}
	if serr.Addr != addrs[0]+","+addrs[1] {
		t.Fatalf("exhausted set named %q, want %q", serr.Addr, addrs[0]+","+addrs[1])
	}
	if !strings.Contains(err.Error(), "all 2 replicas exhausted") {
		t.Fatalf("error does not report exhaustion: %v", err)
	}
}

// TestHedgedStatsParity: aggressive hedging against two healthy
// replicas changes neither the answers nor a single QueryMetrics
// counter relative to the loopback twin — hedging lives strictly below
// the metrics the cluster reports.
func TestHedgedStatsParity(t *testing.T) {
	const shards, k = 2, 5
	rng := rand.New(rand.NewSource(419))
	db := clustered(rng, 800, 5, 6)
	queries := clustered(rng, 32, 5, 6)
	prm := core.ExactParams{Seed: 421}
	loop, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	hedged, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer hedged.Close()
	addrs, _ := startShardServers(t, 2*shards)
	opts := fastOpts()
	opts.Hedge = HedgeOptions{MaxHedges: 1, Delay: time.Nanosecond} // hedge virtually every scan
	assignment := [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}}
	if err := hedged.DistributeReplicas(assignment, opts); err != nil {
		t.Fatalf("DistributeReplicas: %v", err)
	}
	want, wantMet, err := loop.KNNBatch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	got, gotMet, err := hedged.KNNBatch(queries, k)
	if err != nil {
		t.Fatalf("hedged KNNBatch: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pos %d: hedged %+v vs loopback %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if gotMet != wantMet {
		t.Fatalf("hedging leaked into QueryMetrics: %+v vs %+v", gotMet, wantMet)
	}
	var hedges int64
	for _, st := range hedged.NetStats() {
		hedges += st.Hedged
	}
	if hedges == 0 {
		t.Fatal("1ns hedge delay fired no hedges — the race was not exercised")
	}
}

// slowProxy forwards the wire protocol to a backend, delaying every
// client→server frame by a fixed amount — the injected slow replica.
func startSlowProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(client net.Conn) {
				defer client.Close()
				server, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer server.Close()
				go io.Copy(client, server)
				hdr := make([]byte, 8)
				for {
					if _, err := io.ReadFull(client, hdr); err != nil {
						return
					}
					payload := make([]byte, binary.LittleEndian.Uint32(hdr[0:4]))
					if _, err := io.ReadFull(client, payload); err != nil {
						return
					}
					time.Sleep(delay)
					if _, err := server.Write(append(append([]byte(nil), hdr...), payload...)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestHedgedTailLatencyUnderSlowReplica: with the primary behind an
// 80ms proxy and a fast twin, an unhedged cluster pays the delay on
// every scan while a hedged one (5ms fixed delay) answers from the twin
// — its worst latency must beat the unhedged cluster's best, and the
// hedge wins must show in the stats. This is the in-tree form of the
// rbc-bench -net-slow experiment.
func TestHedgedTailLatencyUnderSlowReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const delay = 80 * time.Millisecond
	backends, _ := startShardServers(t, 2)
	run := func(hedge HedgeOptions) (time.Duration, time.Duration, *Cluster) {
		cl, _, queries := buildSmall(t, 431, 1)
		slow := startSlowProxy(t, backends[0], delay)
		opts := fastOpts()
		opts.RequestTimeout = 10 * time.Second
		opts.Hedge = hedge
		if err := cl.DistributeReplicas([][]string{{slow, backends[1]}}, opts); err != nil {
			t.Fatalf("DistributeReplicas: %v", err)
		}
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i := 0; i < 8; i++ {
			start := time.Now()
			if _, _, err := cl.KNNBatch(queries, 3); err != nil {
				t.Fatalf("KNNBatch: %v", err)
			}
			if e := time.Since(start); i > 0 { // skip the connection-warmup call
				if e < lo {
					lo = e
				}
				if e > hi {
					hi = e
				}
			}
		}
		return lo, hi, cl
	}
	unhedgedLo, _, _ := run(HedgeOptions{})
	_, hedgedHi, hedgedCl := run(HedgeOptions{MaxHedges: 1, Delay: 5 * time.Millisecond})
	if unhedgedLo < delay {
		t.Fatalf("unhedged best %v beat the %v injected delay — proxy not in the path", unhedgedLo, delay)
	}
	if hedgedHi >= unhedgedLo {
		t.Fatalf("hedged worst %v did not beat unhedged best %v", hedgedHi, unhedgedLo)
	}
	var wins int64
	for _, st := range hedgedCl.NetStats() {
		wins += st.HedgeWins
	}
	if wins == 0 {
		t.Fatal("slow primary induced no hedge wins")
	}
}
