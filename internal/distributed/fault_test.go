package distributed

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/wire"
	"repro/internal/metric"
	"repro/internal/vec"
)

// corruptingProxy forwards TCP bytes to a backend, flipping one byte in
// the first `corrupt` server→client streams it carries. After the
// budget is spent it forwards verbatim, so retries on fresh connections
// succeed.
type corruptingProxy struct {
	ln      net.Listener
	backend string
	corrupt int32
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func startCorruptingProxy(t *testing.T, backend string, corrupt int32) *corruptingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &corruptingProxy{ln: ln, backend: backend, corrupt: corrupt}
	go p.serve()
	// Idle pooled client connections outlive the test body; force-close
	// every piped conn so wg.Wait cannot deadlock against the pool.
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

func (p *corruptingProxy) addr() string { return p.ln.Addr().String() }

func (p *corruptingProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *corruptingProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.pipe(conn)
	}
}

func (p *corruptingProxy) pipe(client net.Conn) {
	defer p.wg.Done()
	defer client.Close()
	p.track(client)
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer server.Close()
	p.track(server)
	done := make(chan struct{}, 2)
	go func() { io.Copy(server, client); done <- struct{}{} }()
	go func() {
		mangle := atomic.AddInt32(&p.corrupt, -1) >= 0
		buf := make([]byte, 32<<10)
		flipped := false
		for {
			n, err := server.Read(buf)
			if n > 0 {
				// Flip a payload byte (past the 8-byte frame header) so
				// the length field stays sane and the CRC must catch it.
				if mangle && !flipped && n > 9 {
					buf[9] ^= 0x55
					flipped = true
				}
				if _, werr := client.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		done <- struct{}{}
	}()
	<-done
}

// blackHoleListener accepts connections and reads forever without ever
// replying — the induced-timeout case.
func startBlackHole(t *testing.T) string {
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
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()
	return ln.Addr().String()
}

func buildSmall(t *testing.T, seed int64, shards int) (*Cluster, *vec.Dataset, *vec.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := clustered(rng, 600, 5, 6)
	queries := clustered(rng, 24, 5, 6)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: seed}, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, db, queries
}

// TestCorruptFramesAreRetriedToBitIdentity: a proxy corrupts the first
// few reply streams; the CRC catches every flip, the client retries on
// fresh connections, and the final answers are bit-identical to an
// undisturbed loopback cluster.
func TestCorruptFramesAreRetriedToBitIdentity(t *testing.T) {
	const shards = 2
	netCl, db, queries := buildSmall(t, 301, shards)
	loop, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 301}, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()

	backends, _ := startShardServers(t, shards)
	addrs := make([]string, shards)
	for i, b := range backends {
		addrs[i] = startCorruptingProxy(t, b, 2).addr()
	}
	opts := fastOpts()
	opts.MaxAttempts = 4
	if err := netCl.Distribute(addrs, opts); err != nil {
		t.Fatalf("Distribute through corrupting proxies: %v", err)
	}
	want, _, err := loop.KNNBatch(queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := netCl.KNNBatch(queries, 5)
	if err != nil {
		t.Fatalf("KNNBatch through corrupting proxies: %v", err)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
	retries := int64(0)
	for _, st := range netCl.NetStats() {
		retries += st.Retries
	}
	if retries == 0 {
		t.Fatal("corrupting proxy induced no retries — the fault was not exercised")
	}
}

// TestShardDeathFailFast: killing a shard server after Distribute makes
// queries fail with a typed *ShardError within the retry budget — no
// hang, no panic.
func TestShardDeathFailFast(t *testing.T) {
	netCl, _, queries := buildSmall(t, 307, 2)
	addrs, servers := startShardServers(t, 2)
	if err := netCl.Distribute(addrs, fastOpts()); err != nil {
		t.Fatal(err)
	}
	servers[1].Close() // connect refused from now on

	start := time.Now()
	_, _, err := netCl.KNNBatch(queries, 5)
	elapsed := time.Since(start)
	var serr *ShardError
	if !errors.As(err, &serr) {
		t.Fatalf("err=%v, want *ShardError", err)
	}
	if serr.Shard != 1 || serr.Addr != addrs[1] {
		t.Fatalf("wrong shard blamed: %+v", serr)
	}
	// Retry budget: 2 attempts × 1s request timeout + 5ms backoff, plus
	// slack. A hang would blow far past this.
	if elapsed > 5*time.Second {
		t.Fatalf("failure took %v — deadline not enforced", elapsed)
	}
	// The healthy path keeps working for blocks that don't touch the
	// dead shard only if routing avoids it; a broadcast always fails.
	if _, _, err := netCl.QueryBroadcast(queries.Row(0)); err == nil {
		t.Fatal("broadcast through a dead shard succeeded")
	}
}

// TestShardDeathDegradePartial: under DegradePartial the same death
// yields merged results from the surviving shards plus accounting —
// and the results still contain the rep-seeded candidates, so every
// query keeps answering.
func TestShardDeathDegradePartial(t *testing.T) {
	netCl, _, queries := buildSmall(t, 311, 2)
	addrs, servers := startShardServers(t, 2)
	opts := fastOpts()
	opts.Degrade = DegradePartial
	if err := netCl.Distribute(addrs, opts); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()

	got, met, err := netCl.KNNBatch(queries, 5)
	if err != nil {
		t.Fatalf("DegradePartial surfaced an error: %v", err)
	}
	if met.FailedShards == 0 {
		t.Fatal("no failed shards accounted")
	}
	for i := range got {
		if len(got[i]) == 0 {
			t.Fatalf("query %d lost all candidates — rep seeding should survive", i)
		}
	}

	// With every shard dead the broadcast baseline, which seeds nothing
	// from the representatives, has no answer: an empty slice, no error.
	servers[1].Close()
	nb, bm, err := netCl.QueryBroadcast(queries.Row(0))
	if err != nil || len(nb) != 0 || bm.FailedShards != 2 {
		t.Fatalf("broadcast with every shard dead: %v, %d failed shards, err %v; want no answer", nb, bm.FailedShards, err)
	}
}

// TestInducedTimeout: a shard that accepts but never replies must
// surface a deadline error within MaxAttempts×RequestTimeout, not hang.
func TestInducedTimeout(t *testing.T) {
	addr := startBlackHole(t)
	opts := fastOpts()
	opts.RequestTimeout = 300 * time.Millisecond
	tr := newTCPTransport(4, [][]string{{addr}}, opts)
	defer tr.close()

	start := time.Now()
	_, err := tr.scan(0, &shardRequest{qs: make([]float32, 4), segs: [][]int{{0}}, k: 1})
	elapsed := time.Since(start)
	var serr *ShardError
	if !errors.As(err, &serr) {
		t.Fatalf("err=%v, want *ShardError", err)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err=%v, want a timeout", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v for a 300ms×2 budget", elapsed)
	}
}

// TestConnectRefused: nothing listening at all — the dial itself fails
// and the typed error arrives promptly.
func TestConnectRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; nothing listens there now
	tr := newTCPTransport(4, [][]string{{addr}}, fastOpts())
	defer tr.close()
	_, scanErr := tr.scan(0, &shardRequest{qs: make([]float32, 4), segs: [][]int{{0}}, k: 1})
	var serr *ShardError
	if !errors.As(scanErr, &serr) {
		t.Fatalf("err=%v, want *ShardError", scanErr)
	}
	if st := tr.netStats()[0]; st.Failures != 1 {
		t.Fatalf("stats %+v, want 1 failure", st)
	}
}

// TestTruncatedFrameDropsConnection: the server must treat a torn frame
// as a dead connection, not block or crash; a well-formed request on a
// fresh connection still works.
func TestTruncatedFrameDropsConnection(t *testing.T) {
	addrs, _ := startShardServers(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	full := wire.EncodeEmpty(wire.MsgPing)
	if _, err := conn.Write(full[:len(full)-1]); err != nil {
		t.Fatal(err)
	}
	conn.Close() // torn mid-frame

	tr := newTCPTransport(4, oneEach(addrs), fastOpts())
	defer tr.close()
	if err := tr.ping(0); err != nil {
		t.Fatalf("server wedged after torn frame: %v", err)
	}
}
