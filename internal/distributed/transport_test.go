package distributed

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distributed/wire"
	"repro/internal/metric"
)

// startShardServers spins up n in-process ShardServers on ephemeral
// ports and returns their addresses. They are torn down at test end.
func startShardServers(t *testing.T, n int) ([]string, []*ShardServer) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*ShardServer, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewShardServer()
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		addrs[i] = ln.Addr().String()
		servers[i] = srv
	}
	return addrs, servers
}

// oneEach wraps a flat address list into single-replica sets — the
// shape newTCPTransport takes since replication landed.
func oneEach(addrs []string) [][]string {
	out := make([][]string, len(addrs))
	for i, a := range addrs {
		out[i] = []string{a}
	}
	return out
}

// fastOpts keeps fault-path tests snappy: short deadlines, two attempts,
// minimal backoff.
func fastOpts() TCPOptions {
	return TCPOptions{
		DialTimeout:    500 * time.Millisecond,
		RequestTimeout: time.Second,
		MaxAttempts:    2,
		RetryBackoff:   5 * time.Millisecond,
	}
}

// TestDistributeBitIdentical is the tentpole contract: the same cluster
// answering over TCP shard processes must return bit-identical results
// to its loopback twin and to the single-node exact index.
func TestDistributeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := clustered(rng, 1200, 6, 8)
	queries := clustered(rng, 64, 6, 8)
	const k, shards = 7, 3
	prm := core.ExactParams{Seed: 71}
	loop, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	netCl, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer netCl.Close()
	idx, err := core.BuildExact(db, metric.Euclidean{}, prm)
	if err != nil {
		t.Fatal(err)
	}

	addrs, _ := startShardServers(t, shards)
	if err := netCl.Distribute(addrs, TCPOptions{}); err != nil {
		t.Fatalf("Distribute: %v", err)
	}

	want, wantMet, err := loop.KNNBatch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	got, gotMet, err := netCl.KNNBatch(queries, k)
	if err != nil {
		t.Fatalf("networked KNNBatch: %v", err)
	}
	wantExact, _ := idx.KNNBatch(queries, k)
	for i := range want {
		if len(got[i]) != len(want[i]) || len(got[i]) != len(wantExact[i]) {
			t.Fatalf("query %d: lengths %d/%d/%d", i, len(got[i]), len(want[i]), len(wantExact[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pos %d: tcp %+v vs loopback %+v", i, j, got[i][j], want[i][j])
			}
			if got[i][j].ID != wantExact[i][j].ID ||
				math.Float64bits(got[i][j].Dist) != math.Float64bits(wantExact[i][j].Dist) {
				t.Fatalf("query %d pos %d: tcp %+v vs exact %+v", i, j, got[i][j], wantExact[i][j])
			}
		}
	}
	// The protocol-cost accounting is transport-independent: same
	// fan-out, same windows, same eval counts.
	if gotMet.PointEvals != wantMet.PointEvals || gotMet.Windows != wantMet.Windows ||
		gotMet.ShardsContacted != wantMet.ShardsContacted || gotMet.Bytes != wantMet.Bytes {
		t.Fatalf("metrics diverged: tcp %+v vs loopback %+v", gotMet, wantMet)
	}

	// Per-query and broadcast paths over the wire, against loopback.
	q := queries.Row(3)
	wq, _, err := loop.KNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	gq, _, err := netCl.KNN(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wq) != 1 || !slices.Equal(gq, wq) {
		t.Fatalf("KNN(q, 1): %+v vs %+v", gq, wq)
	}
	wb, _, err := loop.QueryBroadcast(q)
	if err != nil {
		t.Fatal(err)
	}
	gb, _, err := netCl.QueryBroadcast(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(wb) != 1 || !slices.Equal(gb, wb) {
		t.Fatalf("QueryBroadcast: %+v vs %+v", gb, wb)
	}

	if loop.NetStats() != nil {
		t.Fatal("loopback cluster reports net stats")
	}
	stats := netCl.NetStats()
	if len(stats) != shards {
		t.Fatalf("%d net stats entries", len(stats))
	}
	for sid, st := range stats {
		if st.Addr != addrs[sid] {
			t.Fatalf("shard %d stats addr %s, want %s", sid, st.Addr, addrs[sid])
		}
		if st.Requests == 0 || st.BytesSent == 0 || st.BytesRecv == 0 {
			t.Fatalf("shard %d stats empty: %+v", sid, st)
		}
		if st.Failures != 0 || st.Retries != 0 {
			t.Fatalf("shard %d saw failures on a healthy cluster: %+v", sid, st)
		}
	}
}

func TestDistributeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := clustered(rng, 300, 4, 4)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 73}, 2, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Distribute([]string{"127.0.0.1:1"}, TCPOptions{}); err == nil {
		t.Fatal("addr-count mismatch accepted")
	}
	// A load failure must leave the cluster serving on loopback.
	bad := []string{"127.0.0.1:1", "127.0.0.1:1"} // reserved port: connect refused
	var serr *ShardError
	if err := cl.Distribute(bad, fastOpts()); !errors.As(err, &serr) {
		t.Fatalf("unreachable shards: err=%v, want *ShardError", err)
	}
	if _, _, err := cl.KNNBatch(db.Subset([]int{0, 1, 2}), 3); err != nil {
		t.Fatalf("cluster broken after failed Distribute: %v", err)
	}

	addrs, _ := startShardServers(t, 2)
	if err := cl.Distribute(addrs, TCPOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Distribute(addrs, TCPOptions{}); err == nil {
		t.Fatal("second Distribute accepted")
	}
	cl.Close()
	if err := cl.Distribute(addrs, TCPOptions{}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("Distribute after Close: %v", err)
	}
}

// TestShardServerRejectsScanBeforeLoad locks in the remote-decision
// path: a MsgErr is not retried and surfaces as a *ShardError wrapping
// wire-level remote detail.
func TestShardServerRejectsScanBeforeLoad(t *testing.T) {
	addrs, _ := startShardServers(t, 1)
	tr := newTCPTransport(4, oneEach(addrs), fastOpts())
	defer tr.close()
	_, err := tr.scan(0, &shardRequest{qs: make([]float32, 4), segs: [][]int{{0}}, k: 1})
	var serr *ShardError
	if !errors.As(err, &serr) {
		t.Fatalf("err=%v, want *ShardError", err)
	}
	if tr.sets[0].replicas[0].stats.Retries != 0 {
		t.Fatal("remote error was retried")
	}
}

// TestShardRefusesHostileScans: a shard refuses, with errBadScan from
// validateScan and a MsgErr on the wire, every routed request no
// coordinator sends — a NaN or negative representative distance,
// distances without bounds, and version-2 windows — and serves the
// well-formed request they are cut from.
func TestShardRefusesHostileScans(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := clustered(rng, 300, 4, 4)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 83}, 2, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec, err := wire.SpecFor(cl.m)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewShardServer()
	if reply := srv.handleLoad(wire.EncodeShardState(stateOf(cl.shards[0], spec, 1))[10:]); reply[9] != wire.MsgLoadOK {
		t.Fatal("shard state load refused")
	}
	valid := func() *wire.ScanRequest {
		return &wire.ScanRequest{Dim: 4, K: 2, Epoch: 1, Qs: db.Row(5), Segs: [][]int{{0, 1}},
			Bounds: []float64{3}, Dists: []float64{0.5, 1.5}}
	}
	serve := func(req *wire.ScanRequest) (byte, []byte) {
		mt, body, err := wire.ReadFrame(bytes.NewReader(srv.handleScan(wire.EncodeScanRequest(req)[10:])), wire.MaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		return mt, body
	}
	if err := validateScan(cl.shards[0], valid()); err != nil {
		t.Fatalf("well-formed routed scan refused: %v", err)
	}
	if mt, _ := serve(valid()); mt != wire.MsgScanReply {
		t.Fatalf("well-formed routed scan answered with message type %d", mt)
	}
	for name, spoil := range map[string]func(r *wire.ScanRequest){
		"NaN distance":          func(r *wire.ScanRequest) { r.Dists[1] = math.NaN() },
		"negative distance":     func(r *wire.ScanRequest) { r.Dists[0] = -0.25 },
		"distances, no bounds":  func(r *wire.ScanRequest) { r.Bounds = nil },
		"windows beside dists":  func(r *wire.ScanRequest) { r.Wins = []float64{0, 1, 1, 2} },
		"windows instead":       func(r *wire.ScanRequest) { r.Dists, r.Wins = nil, []float64{0, 1, 1, 2} },
		"distances count short": func(r *wire.ScanRequest) { r.Dists = r.Dists[:1] },
	} {
		req := valid()
		spoil(req)
		if err := validateScan(cl.shards[0], req); !errors.Is(err, errBadScan) {
			t.Errorf("%s: validateScan returned %v, want errBadScan", name, err)
		}
		mt, body := serve(req)
		var re *wire.RemoteError
		if mt != wire.MsgErr || !errors.As(wire.DecodeErr(body), &re) || !strings.HasPrefix(re.Msg, errBadScan.Error()) {
			t.Errorf("%s: shard answered message type %d, want a MsgErr naming %q", name, mt, errBadScan)
		}
	}
}

func TestTCPPingAndPool(t *testing.T) {
	addrs, _ := startShardServers(t, 1)
	tr := newTCPTransport(4, oneEach(addrs), TCPOptions{})
	defer tr.close()
	for i := 0; i < 3; i++ {
		if err := tr.ping(0); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.netStats()[0]
	if st.Requests != 3 || st.Failures != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.RTT <= 0 {
		t.Fatalf("no RTT recorded: %+v", st)
	}
	// The pool should be reusing one warm connection, not piling up new
	// ones: after serial pings, exactly one idle conn is pooled.
	if n := len(tr.sets[0].replicas[0].pool); n != 1 {
		t.Fatalf("%d pooled conns after serial pings, want 1", n)
	}
}
