package distributed

// Multi-process cluster smoke (PR 9): real shard processes — the test
// binary re-executed as a ShardServer, the same serving loop
// cmd/rbc-shard runs — behind a coordinator over real TCP. Covers the
// cross-process equivalence contract (bit-identical to loopback and
// core.Exact) and mid-request SIGKILL of a shard process. CI runs this
// under -race as the multi-process smoke job.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
)

const (
	shardChildEnv = "RBC_SHARD_CHILD"
	shardDirEnv   = "RBC_SHARD_DIR"
)

// TestHelperShardProcess is not a test: it is the shard child body,
// re-executed from the test binary with RBC_SHARD_CHILD=1. It serves an
// empty ShardServer (the coordinator pushes state over the wire) and
// publishes its listen address to <dir>/port, exactly as cmd/rbc-shard
// does with -addr-file.
func TestHelperShardProcess(t *testing.T) {
	if os.Getenv(shardChildEnv) != "1" {
		t.Skip("shard helper process")
	}
	dir := os.Getenv(shardDirEnv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "shard helper: %v\n", err)
		os.Exit(1)
	}
	tmp := filepath.Join(dir, "port.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "shard helper: %v\n", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "port")); err != nil {
		fmt.Fprintf(os.Stderr, "shard helper: %v\n", err)
		os.Exit(1)
	}
	NewShardServer().Serve(ln) // runs until SIGKILL
}

type shardProc struct {
	cmd  *exec.Cmd
	addr string
}

func startShardProc(t *testing.T) *shardProc {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperShardProcess$", "-test.v=false")
	cmd.Env = append(os.Environ(), shardChildEnv+"=1", shardDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &shardProc{cmd: cmd}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(filepath.Join(dir, "port")); err == nil && len(b) > 0 {
			p.addr = string(b)
			return p
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("shard child never published its address")
	return nil
}

func (p *shardProc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait() // reap; exit error expected after SIGKILL
}

// TestMultiProcessEquivalenceAndShardKill spawns three real shard
// processes, distributes a cluster onto them, and checks (1) answers
// are bit-identical to the in-process loopback cluster and to
// core.Exact across the corpus, and (2) SIGKILLing one shard process
// mid-workload yields the typed fail-fast error within the deadline —
// never a hang — while a DegradePartial twin keeps answering with the
// failure accounted.
func TestMultiProcessEquivalenceAndShardKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const shards, k = 3, 6
	rng := rand.New(rand.NewSource(907))
	db := clustered(rng, 900, 6, 8)
	queries := clustered(rng, 48, 6, 8)
	prm := core.ExactParams{Seed: 911}

	loop, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	netFF, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer netFF.Close()
	netDP, err := Build(db, metric.Euclidean{}, prm, shards, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	defer netDP.Close()
	idx, err := core.BuildExact(db, metric.Euclidean{}, prm)
	if err != nil {
		t.Fatal(err)
	}

	procs := make([]*shardProc, shards)
	addrs := make([]string, shards)
	for i := range procs {
		procs[i] = startShardProc(t)
		addrs[i] = procs[i].addr
	}
	ffOpts := fastOpts()
	if err := netFF.Distribute(addrs, ffOpts); err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	dpOpts := fastOpts()
	dpOpts.Degrade = DegradePartial
	if err := netDP.Distribute(addrs, dpOpts); err != nil {
		t.Fatalf("Distribute: %v", err)
	}

	// (1) Cross-process equivalence while all shards are healthy.
	want, _, err := loop.KNNBatch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := netFF.KNNBatch(queries, k)
	if err != nil {
		t.Fatalf("multi-process KNNBatch: %v", err)
	}
	wantExact, _ := idx.KNNBatch(queries, k)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pos %d: process %+v vs loopback %+v", i, j, got[i][j], want[i][j])
			}
			if got[i][j].ID != wantExact[i][j].ID {
				t.Fatalf("query %d pos %d: process %+v vs exact %+v", i, j, got[i][j], wantExact[i][j])
			}
		}
	}

	// (2) SIGKILL one shard process while a query workload runs.
	var stop int32
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(10 * time.Millisecond)
		procs[2].sigkill(t)
	}()
	sawError := false
	deadline := time.Now().Add(30 * time.Second)
	for atomic.LoadInt32(&stop) == 0 && time.Now().Before(deadline) {
		_, _, err := netFF.KNNBatch(queries, k)
		if err != nil {
			var serr *ShardError
			if !errors.As(err, &serr) {
				t.Fatalf("shard kill surfaced untyped error: %v", err)
			}
			sawError = true
			atomic.StoreInt32(&stop, 1)
		}
	}
	<-killed
	if !sawError {
		t.Fatal("killed a shard but the fail-fast cluster never reported it")
	}

	// The DegradePartial twin keeps answering across the same dead shard.
	res, met, err := netDP.KNNBatch(queries, k)
	if err != nil {
		t.Fatalf("DegradePartial after shard kill: %v", err)
	}
	if met.FailedShards == 0 {
		t.Fatal("dead shard not accounted in FailedShards")
	}
	for i := range res {
		if len(res[i]) == 0 {
			t.Fatalf("query %d lost all candidates under DegradePartial", i)
		}
	}
}

// TestMultiProcessReplicatedKillOneReplicaPerShard is the replicated
// fault drill (PR 10): three shards, each served by TWO real shard
// processes, with one replica of EVERY shard SIGKILLed mid-workload.
// Failover walks each shard's set, so every batch before, during and
// after the kills must return answers bit-identical to the loopback
// twin with ZERO FailedShards — replication turns what used to be an
// outage into pure failover traffic, visible only in the per-replica
// net counters.
func TestMultiProcessReplicatedKillOneReplicaPerShard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const shards, k = 3, 6
	rng := rand.New(rand.NewSource(947))
	db := clustered(rng, 900, 6, 8)
	queries := clustered(rng, 48, 6, 8)
	prm := core.ExactParams{Seed: 953}

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

	// Two replica processes per shard; replica 0 is the kill target.
	procs := make([][2]*shardProc, shards)
	assignment := make([][]string, shards)
	for sid := 0; sid < shards; sid++ {
		procs[sid][0] = startShardProc(t)
		procs[sid][1] = startShardProc(t)
		assignment[sid] = []string{procs[sid][0].addr, procs[sid][1].addr}
	}
	opts := fastOpts()
	opts.Degrade = DegradePartial // zero FailedShards must hold even when allowed to degrade
	if err := netCl.DistributeReplicas(assignment, opts); err != nil {
		t.Fatalf("DistributeReplicas: %v", err)
	}

	want, _, err := loop.KNNBatch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		got, met, err := netCl.KNNBatch(queries, k)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if met.FailedShards != 0 {
			t.Fatalf("%s: %d FailedShards with a live replica per shard", stage, met.FailedShards)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: query %d pos %d: %+v vs loopback %+v", stage, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	check("healthy replicated cluster")

	// Kill one replica of every shard while a workload goroutine runs.
	stop := make(chan struct{})
	workErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				workErr <- nil
				return
			default:
			}
			if _, met, err := netCl.KNNBatch(queries, k); err != nil {
				workErr <- fmt.Errorf("mid-kill batch: %w", err)
				return
			} else if met.FailedShards != 0 {
				workErr <- fmt.Errorf("mid-kill batch counted %d FailedShards", met.FailedShards)
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	for sid := 0; sid < shards; sid++ {
		procs[sid][0].sigkill(t)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	if err := <-workErr; err != nil {
		t.Fatal(err)
	}
	check("after killing one replica per shard")

	// The kills must be visible as failover traffic: every killed
	// replica accumulated failures, every survivor kept serving.
	stats := netCl.NetStats()
	if len(stats) != 2*shards {
		t.Fatalf("%d stats entries for %d replicas", len(stats), 2*shards)
	}
	bySurvivor := map[string]bool{}
	for sid := 0; sid < shards; sid++ {
		bySurvivor[procs[sid][1].addr] = true
	}
	sawFailover := false
	for _, st := range stats {
		if bySurvivor[st.Addr] {
			if st.Requests == 0 {
				t.Fatalf("surviving replica %s served nothing: %+v", st.Addr, st)
			}
			continue
		}
		if st.Failures > 0 {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatal("killed replicas show no failures — failover path not exercised")
	}

	// Killing the survivors too exhausts shard sets: DegradePartial now
	// counts the missing shards instead of failing.
	for sid := 0; sid < shards; sid++ {
		procs[sid][1].sigkill(t)
	}
	res, met, err := netCl.KNNBatch(queries, k)
	if err != nil {
		t.Fatalf("DegradePartial after total kill: %v", err)
	}
	if met.FailedShards != shards {
		t.Fatalf("%d FailedShards after killing every replica, want %d", met.FailedShards, shards)
	}
	for i := range res {
		if len(res[i]) == 0 {
			t.Fatalf("query %d lost all candidates — rep seeding should survive", i)
		}
	}
}
