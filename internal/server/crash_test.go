package server

// Kill-and-replay crash recovery (PR 8, satellite 1): a real child
// process serves a durable index over HTTP, the parent drives a mutation
// workload and SIGKILLs the child at randomized points — including with
// one request in flight — then restarts it and checks the recovered
// index bit-identically matches a reference rebuilt from the
// acknowledged prefix. Mid-append torn writes are covered in-process by
// the wal package tests and TestDurableFaultInjectionRecovery (the
// fault hook); this file covers whole-process crashes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/wal"
)

const (
	crashChildEnv = "RBC_CRASH_CHILD"
	crashDirEnv   = "RBC_CRASH_DIR"
	crashBaseN    = 300 // bootstrap dataset size, shared parent/child via testData
)

// TestHelperDurableServer is not a test: it is the child process body,
// re-executed from the test binary with RBC_CRASH_CHILD=1. It opens the
// durable server (bootstrapping from the deterministic testData corpus
// on first boot, recovering from disk after crashes), publishes its
// listen address to <dir>/port, and serves until killed.
func TestHelperDurableServer(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("crash-test helper process")
	}
	dir := os.Getenv(crashDirEnv)
	s, _, err := OpenDurable(testData(crashBaseN), metric.Euclidean{},
		core.ExactParams{Seed: 3},
		DurabilityOptions{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	tmp := filepath.Join(dir, "port.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "port")); err != nil {
		fmt.Fprintf(os.Stderr, "helper: %v\n", err)
		os.Exit(1)
	}
	http.Serve(ln, s) // runs until SIGKILL
}

// crashChild manages one child server process.
type crashChild struct {
	cmd  *exec.Cmd
	addr string
}

func startCrashChild(t *testing.T, dir string) *crashChild {
	t.Helper()
	os.Remove(filepath.Join(dir, "port"))
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperDurableServer$", "-test.v=false")
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &crashChild{cmd: cmd}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(filepath.Join(dir, "port")); err == nil && len(b) > 0 {
			c.addr = string(b)
			return c
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("child never published its address")
	return nil
}

func (c *crashChild) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait() // reap; exit error expected after SIGKILL
}

// post sends a JSON request to the child over real HTTP.
func (c *crashChild) post(path string, body interface{}) (int, map[string]json.RawMessage, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post("http://"+c.addr+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var parsed map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		return resp.StatusCode, nil, nil // body may be empty
	}
	return resp.StatusCode, parsed, nil
}

// crashOp is one workload step, also reconstructable from a WAL record.
type crashOp struct {
	insert []float32
	delete int
}

func opFromRecord(rec wal.Record) crashOp {
	if rec.Op == wal.OpInsert {
		return crashOp{insert: rec.Point}
	}
	return crashOp{delete: int(rec.ID)}
}

func (op crashOp) equal(other crashOp) bool {
	if (op.insert == nil) != (other.insert == nil) {
		return false
	}
	if op.insert == nil {
		return op.delete == other.delete
	}
	if len(op.insert) != len(other.insert) {
		return false
	}
	for i := range op.insert {
		if op.insert[i] != other.insert[i] {
			return false
		}
	}
	return true
}

func (op crashOp) send(c *crashChild) (int, map[string]json.RawMessage, error) {
	if op.insert != nil {
		return c.post("/insert", map[string]interface{}{"point": op.insert})
	}
	return c.post("/delete", map[string]int{"id": op.delete})
}

// TestCrashRecoveryKillAndReplay is the kill-and-replay suite. Each
// trial SIGKILLs the child at a randomized point in the workload with
// one mutation deliberately in flight, then verifies:
//
//  1. the surviving WAL holds every acknowledged op, in order, as a
//     prefix (SyncAlways: an ack implies durable), followed by at most
//     the in-flight op;
//  2. the restarted server answers queries bit-identically to a
//     reference index rebuilt from the bootstrap corpus plus exactly
//     the surviving records.
//
// State carries across trials through the same data dir, so later
// trials also exercise recover-then-crash-again, and one trial
// snapshots mid-workload so a kill lands after a generation change.
func TestCrashRecoveryKillAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(61))

	// The reference replays everything that ever hit a surviving WAL or
	// snapshot. Tracked ops: all records recovered after each crash.
	ref, err := core.BuildExact(cloneData(testData(crashBaseN)), metric.Euclidean{},
		core.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mst := newMutState(crashBaseN)
	queries := testData(12)

	c := startCrashChild(t, dir)
	for trial := 0; trial < 4; trial++ {
		// Records already in the current generation's log (earlier trials
		// share it until a snapshot barrier resets it): this trial's acked
		// ops must appear right after them.
		gen0, err := readCurrent(dir)
		if err != nil {
			t.Fatal(err)
		}
		prior, _, err := wal.ReadRecords(walPath(dir, gen0))
		if err != nil {
			t.Fatal(err)
		}
		base := len(prior)
		killAt := 5 + rng.Intn(25)
		var acked []crashOp
		for i := 0; i < killAt; i++ {
			op := nextCrashOp(rng, mst)
			code, body, err := op.send(c)
			if err != nil || code != http.StatusOK {
				t.Fatalf("trial %d op %d: code %d err %v", trial, i, code, err)
			}
			if op.insert != nil {
				var id int
				if err := json.Unmarshal(body["id"], &id); err != nil {
					t.Fatal(err)
				}
				if id != mst.nextID {
					t.Fatalf("trial %d: insert got id %d, want %d", trial, id, mst.nextID)
				}
				mst.live[id] = true
				mst.nextID++
			} else {
				delete(mst.live, op.delete)
			}
			acked = append(acked, op)
		}
		if trial == 2 { // cross a snapshot barrier before one of the kills
			if code, _, err := c.post("/snapshot", nil); err != nil || code != http.StatusOK {
				t.Fatalf("trial %d snapshot: code %d err %v", trial, code, err)
			}
			base = 0 // the barrier reset the log; acked ops now live in the snapshot
		}

		// Fire one more mutation and SIGKILL without waiting for the ack:
		// the kill races the append, so the op lands durably or not at all.
		inflight := nextCrashOp(rng, mst)
		go inflight.send(c)
		time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		c.kill(t)

		// Decide the trial's ground truth from the surviving log, before
		// the restart mutates anything on disk.
		gen, err := readCurrent(dir)
		if err != nil {
			t.Fatalf("trial %d: reading CURRENT: %v", trial, err)
		}
		recs, _, err := wal.ReadRecords(walPath(dir, gen))
		if err != nil {
			t.Fatalf("trial %d: reading wal: %v", trial, err)
		}
		// Acked ops since the last barrier must form a durable prefix
		// right after the pre-trial records. A snapshot resets the log, so
		// trial 2's acked ops live in the snapshot and only the in-flight
		// op may appear in the fresh log.
		ackedTail := acked
		if trial == 2 {
			ackedTail = nil
		}
		if len(recs) < base+len(ackedTail) || len(recs) > base+len(ackedTail)+1 {
			t.Fatalf("trial %d: %d surviving records for %d prior + %d acked (+1 in flight max)",
				trial, len(recs), base, len(ackedTail))
		}
		for i, op := range ackedTail {
			if !opFromRecord(recs[base+i]).equal(op) {
				t.Fatalf("trial %d: record %d diverges from acked op", trial, base+i)
			}
		}
		if len(recs) == base+len(ackedTail)+1 && !opFromRecord(recs[len(recs)-1]).equal(inflight) {
			t.Fatalf("trial %d: unexpected trailing record", trial)
		}

		// Advance the reference by what actually survived.
		survived := append([]crashOp(nil), acked...)
		if len(recs) == base+len(ackedTail)+1 {
			survived = append(survived, inflight)
			if inflight.insert != nil {
				mst.live[mst.nextID] = true
				mst.nextID++
			} else {
				delete(mst.live, inflight.delete)
			}
		}
		for _, op := range survived {
			if op.insert != nil {
				ref.Insert(append([]float32(nil), op.insert...))
			} else if err := ref.Delete(op.delete); err != nil {
				t.Fatalf("trial %d: reference delete: %v", trial, err)
			}
		}

		// Restart and compare answers bit-for-bit.
		c = startCrashChild(t, dir)
		for qi := 0; qi < queries.N(); qi++ {
			q := queries.Row(qi)
			code, body, err := c.post("/query", map[string]interface{}{"point": q, "k": 5})
			if err != nil || code != http.StatusOK {
				t.Fatalf("trial %d query %d: code %d err %v", trial, qi, code, err)
			}
			var got []neighborBody
			if err := json.Unmarshal(body["neighbors"], &got); err != nil {
				t.Fatal(err)
			}
			want, _ := ref.KNN(q, 5)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d: %d neighbors, reference %d", trial, qi, len(got), len(want))
			}
			for p := range got {
				if got[p].ID != want[p].ID || got[p].Dist != want[p].Dist {
					t.Fatalf("trial %d query %d pos %d: recovered (%d, %v), reference (%d, %v)",
						trial, qi, p, got[p].ID, got[p].Dist, want[p].ID, want[p].Dist)
				}
			}
		}
	}
	c.kill(t)
}

func nextCrashOp(rng *rand.Rand, mst *mutState) crashOp {
	if rng.Intn(3) > 0 || len(mst.live) == 0 {
		return crashOp{insert: []float32{
			float32(rng.Intn(8)) / 2, float32(rng.Intn(8)) / 2, float32(rng.Intn(8)) / 2,
		}}
	}
	// Deterministic victim: smallest live id (map iteration order would
	// desync parent bookkeeping from nothing here, but stay predictable).
	victim := -1
	for id := range mst.live {
		if victim < 0 || id < victim {
			victim = id
		}
	}
	return crashOp{delete: victim}
}
