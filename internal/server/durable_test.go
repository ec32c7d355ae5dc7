package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/vec"
	"repro/internal/wal"
)

// cloneData deep-copies a dataset so a durable server and its replay
// reference never share backing storage (Insert grows both).
func cloneData(db *vec.Dataset) *vec.Dataset {
	return vec.FromFlat(append([]float32(nil), db.Data...), db.Dim)
}

func openDurable(t *testing.T, dir string, bootstrap *vec.Dataset, d DurabilityOptions) *Server {
	t.Helper()
	d.Dir = dir
	s, _, err := OpenDurable(bootstrap, metric.Euclidean{}, core.ExactParams{Seed: 3}, d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mutOp is one step of a recorded mutation history, replayable onto a
// reference index.
type mutOp struct {
	insert []float32
	delete int
}

func applyOps(t *testing.T, idx *core.Exact, ops []mutOp) {
	t.Helper()
	for _, op := range ops {
		if op.insert != nil {
			idx.Insert(op.insert)
		} else if err := idx.Delete(op.delete); err != nil {
			t.Fatal(err)
		}
	}
}

// mutState tracks which ids are live across driveOps calls (and across
// server restarts — ids are stable, so the state carries over).
type mutState struct {
	nextID int
	live   map[int]bool
}

func newMutState(n int) *mutState {
	st := &mutState{nextID: n, live: make(map[int]bool, n)}
	for i := 0; i < n; i++ {
		st.live[i] = true
	}
	return st
}

// driveOps sends a deterministic insert/delete mix through the HTTP
// mutation path and returns the acknowledged history.
func driveOps(t *testing.T, s *Server, rng *rand.Rand, n int, st *mutState) []mutOp {
	t.Helper()
	var ops []mutOp
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 || len(st.live) == 0 { // inserts twice as often
			p := []float32{float32(rng.Intn(8)) / 2, float32(rng.Intn(8)) / 2, float32(rng.Intn(8)) / 2}
			rec, body := do(t, s, "POST", "/insert", map[string]interface{}{"point": p})
			if rec.Code != http.StatusOK {
				t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body.String())
			}
			var id int
			if err := json.Unmarshal(body["id"], &id); err != nil {
				t.Fatal(err)
			}
			if id != st.nextID {
				t.Fatalf("insert %d: id %d, want %d", i, id, st.nextID)
			}
			ops = append(ops, mutOp{insert: p})
			st.live[id] = true
			st.nextID++
			continue
		}
		var victim int
		for victim = range st.live {
			break
		}
		rec, _ := do(t, s, "POST", "/delete", map[string]int{"id": victim})
		if rec.Code != http.StatusOK {
			t.Fatalf("delete %d: %d %s", i, rec.Code, rec.Body.String())
		}
		ops = append(ops, mutOp{delete: victim})
		delete(st.live, victim)
	}
	return ops
}

// assertServerMatchesReference compares the server's /query answers
// bit-for-bit against a reference index. JSON float64 encoding is
// round-trip exact in Go, so equality across the HTTP boundary is
// equality of distance bits.
func assertServerMatchesReference(t *testing.T, s *Server, ref *core.Exact, queries *vec.Dataset, k int) {
	t.Helper()
	for i := 0; i < queries.N(); i++ {
		q := queries.Row(i)
		rec, body := do(t, s, "POST", "/query", map[string]interface{}{"point": q, "k": k})
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
		var got []neighborBody
		if err := json.Unmarshal(body["neighbors"], &got); err != nil {
			t.Fatal(err)
		}
		want, _ := ref.KNN(q, k)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d neighbors, reference has %d", i, len(got), len(want))
		}
		for p := range got {
			if got[p].ID != want[p].ID || got[p].Dist != want[p].Dist {
				t.Fatalf("query %d pos %d: got (%d, %v), reference (%d, %v)",
					i, p, got[p].ID, got[p].Dist, want[p].ID, want[p].Dist)
			}
		}
	}
}

func TestDurableRestartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	base := testData(300)
	s := openDurable(t, dir, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})
	rng := rand.New(rand.NewSource(41))
	ops := driveOps(t, s, rng, 120, newMutState(base.N()))
	s.Close()

	// Restart: no bootstrap needed once the directory holds state? Not
	// yet — generation 0 has no snapshot, so the bootstrap dataset (and
	// build params) must reproduce the original build. Same data + same
	// seed → same representatives, then the WAL replay reconstructs the
	// acknowledged history exactly.
	s2 := openDurable(t, dir, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})
	defer s2.Close()

	ref, err := core.BuildExact(cloneData(base), metric.Euclidean{}, core.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)
	assertServerMatchesReference(t, s2, ref, testData(20), 5)

	// Replay accounting surfaces in /stats.
	_, body := do(t, s2, "GET", "/stats", nil)
	var st statsBody
	raw, _ := json.Marshal(body)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability == nil {
		t.Fatal("stats missing durability section")
	}
	if st.Durability.ReplayRecords != len(ops) {
		t.Fatalf("replayed %d records, want %d", st.Durability.ReplayRecords, len(ops))
	}
	if st.Durability.SyncMode != "always" || st.Durability.Generation != 0 {
		t.Fatalf("durability stats: %+v", st.Durability)
	}
}

func TestSnapshotBarrierTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	base := testData(250)
	s := openDurable(t, dir, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})
	rng := rand.New(rand.NewSource(43))
	mst := newMutState(base.N())
	pre := driveOps(t, s, rng, 80, mst)

	rec, body := do(t, s, "POST", "/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", rec.Code, rec.Body.String())
	}
	var gen int
	if err := json.Unmarshal(body["generation"], &gen); err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("generation %d, want 1", gen)
	}
	// The barrier reset the log: snapshot supersedes the pre-snapshot
	// records, and the generation-0 log is gone.
	_, body = do(t, s, "GET", "/stats", nil)
	var st statsBody
	raw, _ := json.Marshal(body)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durability.WALRecords != 0 || st.Durability.Generation != 1 {
		t.Fatalf("after snapshot: %+v", st.Durability)
	}
	if _, err := os.Stat(walPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("generation-0 wal not removed: %v", err)
	}

	post := driveOps(t, s, rng, 60, mst)
	s.Close()

	// The new generation's log holds only the post-snapshot records.
	recs, replay, err := wal.ReadRecords(walPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(post) || replay.TruncatedBytes != 0 {
		t.Fatalf("generation-1 wal: %d records (want %d), %d truncated bytes",
			len(recs), len(post), replay.TruncatedBytes)
	}

	// Restart recovers snapshot + tail replay; no bootstrap dataset
	// needed anymore. Reference replays the full acknowledged history.
	s2 := openDurable(t, dir, nil, DurabilityOptions{Sync: wal.SyncAlways})
	defer s2.Close()
	ref, err := core.BuildExact(cloneData(base), metric.Euclidean{}, core.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, append(append([]mutOp(nil), pre...), post...))
	assertServerMatchesReference(t, s2, ref, testData(20), 4)
}

// Repeated snapshot/restart cycles keep committing generations; each
// recovery folds the previous tail in and stays bit-identical to the
// full-history reference.
func TestSnapshotRestartCycles(t *testing.T) {
	dir := t.TempDir()
	base := testData(200)
	rng := rand.New(rand.NewSource(47))
	ref, err := core.BuildExact(cloneData(base), metric.Euclidean{}, core.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := testData(15)
	var bootstrap *vec.Dataset = cloneData(base)
	mst := newMutState(base.N())
	for cycle := 0; cycle < 3; cycle++ {
		s := openDurable(t, dir, bootstrap, DurabilityOptions{Sync: wal.SyncAlways})
		bootstrap = nil // later cycles recover from disk alone
		ops := driveOps(t, s, rng, 50, mst)
		applyOps(t, ref, ops)
		if cycle%2 == 0 { // snapshot on even cycles, bare WAL on odd
			if rec, _ := do(t, s, "POST", "/snapshot", nil); rec.Code != http.StatusOK {
				t.Fatalf("cycle %d snapshot: %d", cycle, rec.Code)
			}
		}
		assertServerMatchesReference(t, s, ref, queries, 3)
		s.Close()
	}
	s := openDurable(t, dir, nil, DurabilityOptions{Sync: wal.SyncAlways})
	defer s.Close()
	assertServerMatchesReference(t, s, ref, queries, 3)
}

// Snapshots racing live mutations and queries: the barrier runs under
// the write lock, so every acknowledged op lands either in the snapshot
// or in the post-barrier WAL — never both, never neither. Run with
// -race in CI.
func TestSnapshotUnderConcurrentMutation(t *testing.T) {
	dir := t.TempDir()
	base := testData(300)
	s := openDurable(t, dir, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 40; i++ {
				p := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
				if rec, _ := do(t, s, "POST", "/insert", map[string]interface{}{"point": p}); rec.Code != http.StatusOK {
					errc <- fmt.Errorf("goroutine %d insert %d: %d", g, i, rec.Code)
					return
				}
				if rec, _ := do(t, s, "POST", "/query", map[string]interface{}{"point": p, "k": 3}); rec.Code != http.StatusOK {
					errc <- fmt.Errorf("goroutine %d query %d: %d", g, i, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if rec, _ := do(t, s, "POST", "/snapshot", nil); rec.Code != http.StatusOK {
				errc <- fmt.Errorf("snapshot %d: %d", i, rec.Code)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Freeze the final state, then prove a restart reproduces it
	// bit-for-bit: with SyncAlways every acknowledged op is durable, so
	// recovered answers must equal the live server's.
	queries := testData(15)
	type answer struct {
		ID   int
		Dist float64
	}
	var live [][]answer
	for i := 0; i < queries.N(); i++ {
		rec, body := do(t, s, "POST", "/query", map[string]interface{}{"point": queries.Row(i), "k": 4})
		if rec.Code != http.StatusOK {
			t.Fatalf("freeze query %d: %d", i, rec.Code)
		}
		var nbs []neighborBody
		if err := json.Unmarshal(body["neighbors"], &nbs); err != nil {
			t.Fatal(err)
		}
		row := make([]answer, len(nbs))
		for p, nb := range nbs {
			row[p] = answer{nb.ID, nb.Dist}
		}
		live = append(live, row)
	}
	s.Close()

	s2 := openDurable(t, dir, nil, DurabilityOptions{Sync: wal.SyncAlways})
	defer s2.Close()
	for i := 0; i < queries.N(); i++ {
		rec, body := do(t, s2, "POST", "/query", map[string]interface{}{"point": queries.Row(i), "k": 4})
		if rec.Code != http.StatusOK {
			t.Fatalf("recovered query %d: %d", i, rec.Code)
		}
		var nbs []neighborBody
		if err := json.Unmarshal(body["neighbors"], &nbs); err != nil {
			t.Fatal(err)
		}
		if len(nbs) != len(live[i]) {
			t.Fatalf("query %d: recovered %d neighbors, live had %d", i, len(nbs), len(live[i]))
		}
		for p, nb := range nbs {
			if (answer{nb.ID, nb.Dist}) != live[i][p] {
				t.Fatalf("query %d pos %d: recovered (%d, %v), live (%d, %v)",
					i, p, nb.ID, nb.Dist, live[i][p].ID, live[i][p].Dist)
			}
		}
	}
}

// A write fault mid-append (torn frame) poisons the log: the handler
// 500s without applying, the server stays consistent read-only, and a
// restart truncates the torn tail and recovers exactly the acknowledged
// prefix.
func TestDurableFaultInjectionRecovery(t *testing.T) {
	for _, failAt := range []int{0, 1, 7} { // fail the (failAt+1)-th append, torn mid-frame
		dir := t.TempDir()
		base := testData(200)
		appends := 0
		s := openDurable(t, dir, cloneData(base), DurabilityOptions{
			Sync: wal.SyncAlways,
			FaultHook: func(frame []byte) int {
				if appends == failAt {
					return len(frame) / 2
				}
				appends++
				return -1
			},
		})
		var acked []mutOp
		var sawFault bool
		for i := 0; i < failAt+3; i++ {
			p := []float32{float32(i), 0.5, 0.25}
			rec, _ := do(t, s, "POST", "/insert", map[string]interface{}{"point": p})
			switch rec.Code {
			case http.StatusOK:
				if sawFault {
					t.Fatalf("failAt=%d: insert %d succeeded after the log was poisoned", failAt, i)
				}
				acked = append(acked, mutOp{insert: p})
			case http.StatusInternalServerError:
				sawFault = true
			default:
				t.Fatalf("failAt=%d insert %d: unexpected status %d", failAt, i, rec.Code)
			}
		}
		if !sawFault {
			t.Fatalf("failAt=%d: fault never fired", failAt)
		}
		// Queries still work on the poisoned server (read-only fail-stop).
		if rec, _ := do(t, s, "POST", "/query", map[string]interface{}{"point": []float32{0, 0, 0}, "k": 2}); rec.Code != http.StatusOK {
			t.Fatalf("failAt=%d: query on poisoned server: %d", failAt, rec.Code)
		}
		s.Close()

		s2 := openDurable(t, dir, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})
		ref, err := core.BuildExact(cloneData(base), metric.Euclidean{}, core.ExactParams{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, ref, acked)
		if got, want := s2.exact.Live(), ref.Live(); got != want {
			t.Fatalf("failAt=%d: recovered %d live points, acked prefix has %d", failAt, got, want)
		}
		assertServerMatchesReference(t, s2, ref, testData(10), 3)
		s2.Close()
	}
}

func TestOpenDurableRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	// Commit a generation whose snapshot bytes are garbage: CURRENT says
	// 1, snapshot-1.rbc is not a snapshot. Recovery must fail loudly, not
	// serve an empty index.
	if err := os.WriteFile(snapshotPath(dir, 1), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(currentPath(dir), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenDurable(testData(50), metric.Euclidean{}, core.ExactParams{Seed: 3}, DurabilityOptions{Dir: dir})
	if err == nil {
		t.Fatal("corrupt snapshot should fail recovery")
	}
	// A corrupt index image inside a well-formed wrapper must be caught
	// by LoadExact's validation, surfaced through OpenDurable.
	dir2 := t.TempDir()
	base := testData(60)
	s := openDurable(t, dir2, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})
	if rec, _ := do(t, s, "POST", "/snapshot", nil); rec.Code != http.StatusOK {
		t.Fatalf("snapshot: %d", rec.Code)
	}
	s.Close()
	f, err := os.Open(snapshotPath(dir2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var sf snapshotFile
	if err := gob.NewDecoder(f).Decode(&sf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sf.Index = sf.Index[:len(sf.Index)/2] // torn index payload inside a well-formed wrapper
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&sf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir2, 1), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(nil, metric.Euclidean{}, core.ExactParams{}, DurabilityOptions{Dir: dir2}); err == nil {
		t.Fatal("torn index payload should fail recovery")
	}
}

func TestOpenDurableRequiresBootstrapOrSnapshot(t *testing.T) {
	_, _, err := OpenDurable(nil, metric.Euclidean{}, core.ExactParams{}, DurabilityOptions{Dir: t.TempDir()})
	if err == nil {
		t.Fatal("fresh dir without bootstrap should error")
	}
}

// A crash between writing the new snapshot files and committing CURRENT
// must recover from the old generation with the full old log; the
// half-written files are swept.
func TestRecoveryIgnoresUncommittedGeneration(t *testing.T) {
	dir := t.TempDir()
	base := testData(150)
	s := openDurable(t, dir, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})
	rng := rand.New(rand.NewSource(53))
	ops := driveOps(t, s, rng, 40, newMutState(base.N()))
	s.Close()

	// Simulate the crash: generation-1 files exist, CURRENT still absent
	// (generation 0).
	if err := os.WriteFile(snapshotPath(dir, 1), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir, 1), []byte("RBCW"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir, cloneData(base), DurabilityOptions{Sync: wal.SyncAlways})
	defer s2.Close()
	ref, err := core.BuildExact(cloneData(base), metric.Euclidean{}, core.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)
	assertServerMatchesReference(t, s2, ref, testData(10), 3)
	for _, stale := range []string{snapshotPath(dir, 1), walPath(dir, 1)} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("stale file %s not swept", filepath.Base(stale))
		}
	}
}
