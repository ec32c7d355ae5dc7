package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metric"
	"repro/internal/vec"
)

func newCoalescedServer(t testing.TB, n, maxBatch int, maxWait time.Duration) (*Server, *Server, *vec.Dataset) {
	t.Helper()
	db := testData(n)
	idx, err := core.BuildExact(db, metric.Euclidean{}, core.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	co := NewExact(db, metric.Euclidean{}, idx, WithCoalescing(maxBatch, maxWait))
	plain := NewExact(db, metric.Euclidean{}, idx)
	return co, plain, db
}

func postQuery(s *Server, q []float32, k int) (*httptest.ResponseRecorder, queryResponse) {
	raw, _ := json.Marshal(queryRequest{Point: q, K: k})
	req := httptest.NewRequest("POST", "/query", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var resp queryResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &resp)
	return rec, resp
}

// Coalesced responses must be bit-identical to the per-query path, under
// real concurrency (run with -race). Mixed k values exercise the
// group-by-k split.
func TestCoalescedMatchesPerQuery(t *testing.T) {
	co, plain, db := newCoalescedServer(t, 800, 16, 200*time.Microsecond)
	defer co.Close()
	const workers = 8
	const perWorker = 40
	rng := rand.New(rand.NewSource(99))
	queries := make([][]float32, workers*perWorker)
	for i := range queries {
		queries[i] = append([]float32(nil), db.Row(rng.Intn(db.N()))...)
		for j := range queries[i] {
			queries[i][j] += rng.Float32() * 0.1
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[w*perWorker+i]
				k := 1 + (w+i)%3
				rec, got := postQuery(co, q, k)
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("coalesced query: %d %s", rec.Code, rec.Body.String())
					return
				}
				rec2, want := postQuery(plain, q, k)
				if rec2.Code != http.StatusOK {
					errs <- fmt.Sprintf("plain query: %d", rec2.Code)
					return
				}
				if len(got.Neighbors) != len(want.Neighbors) {
					errs <- fmt.Sprintf("neighbor count %d want %d", len(got.Neighbors), len(want.Neighbors))
					return
				}
				for p := range want.Neighbors {
					if got.Neighbors[p] != want.Neighbors[p] {
						errs <- fmt.Sprintf("q%d pos %d: %+v want %+v", w*perWorker+i, p, got.Neighbors[p], want.Neighbors[p])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := co.co.stats()
	if st.Queries != workers*perWorker {
		t.Fatalf("coalescer saw %d queries, want %d", st.Queries, workers*perWorker)
	}
	if st.MaxBatchSeen < 2 {
		t.Logf("warning: no batching realized (max batch %d) — machine too serial?", st.MaxBatchSeen)
	}
}

// A lone query must not wait for a full batch: the max-wait timer flushes
// it, and the flush is accounted as wait-triggered.
func TestMaxWaitFlush(t *testing.T) {
	co, _, db := newCoalescedServer(t, 300, 1024, time.Millisecond)
	defer co.Close()
	start := time.Now()
	rec, resp := postQuery(co, db.Row(7), 2)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	if len(resp.Neighbors) != 2 {
		t.Fatalf("neighbors: %+v", resp.Neighbors)
	}
	if resp.Batch != 1 {
		t.Fatalf("lone query reported batch %d", resp.Batch)
	}
	// Generous bound: the only requirement is that the timer, not a full
	// batch (1024 queries that never arrive), released the query.
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("lone query waited %v", waited)
	}
	st := co.co.stats()
	if st.WaitFlushes != 1 || st.SizeFlushes != 0 {
		t.Fatalf("flush accounting: %+v", st)
	}
}

// A full batch must flush by size, without waiting out the timer.
func TestSizeFlush(t *testing.T) {
	const batchN = 4
	co, _, db := newCoalescedServer(t, 300, batchN, time.Hour)
	defer co.Close()
	var wg sync.WaitGroup
	codes := make([]int, batchN)
	for i := 0; i < batchN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, resp := postQuery(co, db.Row(i), 1)
			codes[i] = rec.Code
			_ = resp
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("size-triggered flush never happened (maxWait is 1h)")
	}
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("query %d: %d", i, c)
		}
	}
	st := co.co.stats()
	if st.SizeFlushes == 0 {
		t.Fatalf("no size-triggered flush recorded: %+v", st)
	}
}

// Close must drain parked queries (answering them) and reject later ones.
func TestShutdownDrainsPending(t *testing.T) {
	co, _, db := newCoalescedServer(t, 300, 1024, time.Hour)
	const parked = 5
	var wg sync.WaitGroup
	codes := make([]int, parked)
	counts := make([]int, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, resp := postQuery(co, db.Row(i), 1)
			codes[i] = rec.Code
			counts[i] = len(resp.Neighbors)
		}(i)
	}
	// Wait until all five are parked in the queue (none can flush: the
	// batch holds 1024 and the timer fires in an hour).
	deadline := time.Now().Add(30 * time.Second)
	for {
		co.co.mu.Lock()
		n := len(co.co.queue)
		co.co.mu.Unlock()
		if n == parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d queries parked", n, parked)
		}
		time.Sleep(time.Millisecond)
	}
	co.Close()
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusOK || counts[i] != 1 {
			t.Fatalf("drained query %d: code %d, %d neighbors", i, codes[i], counts[i])
		}
	}
	st := co.co.stats()
	if st.DrainFlushes != 1 {
		t.Fatalf("drain accounting: %+v", st)
	}
	// After Close, coalesced queries are refused.
	rec, _ := postQuery(co, db.Row(0), 1)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query after close: %d", rec.Code)
	}
	co.Close() // idempotent
}

// The evals of a coalesced block's responses must sum to the work the
// block did — an equal share each, the remainder spread over the first
// calls — so a client summing them sees the same total however requests
// happened to batch.
func TestCoalescedEvalsSumToBlockTotal(t *testing.T) {
	const n, k = 7, 3
	// Only the size trigger can flush: the seven queries leave as one block.
	co, _, db := newCoalescedServer(t, 800, n, time.Hour)
	defer co.Close()
	block := vec.New(db.Dim, n)
	for i := 0; i < n; i++ {
		q := append([]float32(nil), db.Row(i)...)
		q[0] += 0.25 // off the database points
		block.Append(q)
	}
	var wg sync.WaitGroup
	resps := make([]queryResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, resps[i] = postQuery(co, block.Row(i), k)
		}(i)
	}
	wg.Wait()
	var sum int64
	for i, resp := range resps {
		if resp.Batch != n {
			t.Fatalf("query %d left in a batch of %d, want one block of %d", i, resp.Batch, n)
		}
		sum += resp.Evals
	}
	_, st := co.exact.KNNBatch(block, k)
	if sum != st.TotalEvals() {
		t.Fatalf("responses' evals sum to %d, the block did %d (remainder %d of %d)",
			sum, st.TotalEvals(), st.TotalEvals()%n, n)
	}
}

// A client-supplied k beyond the database size must be clamped, not
// crash the process or strand other parked queries (heap capacity is
// sized from k).
func TestHugeKIsClamped(t *testing.T) {
	co, plain, db := newCoalescedServer(t, 100, 8, 100*time.Microsecond)
	defer co.Close()
	for _, s := range []*Server{co, plain} {
		rec, resp := postQuery(s, db.Row(0), 1<<60)
		if rec.Code != http.StatusOK {
			t.Fatalf("huge k: %d %s", rec.Code, rec.Body.String())
		}
		if len(resp.Neighbors) != db.N() {
			t.Fatalf("huge k returned %d neighbors, want %d", len(resp.Neighbors), db.N())
		}
	}
}

// The /stats endpoint must surface the coalescer counters.
func TestStatsReportCoalescing(t *testing.T) {
	co, plain, db := newCoalescedServer(t, 300, 8, 100*time.Microsecond)
	defer co.Close()
	postQuery(co, db.Row(0), 1)
	rec, body := do(t, co, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var cs coalesceStats
	if err := json.Unmarshal(body["coalesce"], &cs); err != nil {
		t.Fatal(err)
	}
	if !cs.Enabled || cs.MaxBatch != 8 || cs.MaxWaitUS != 100 || cs.Queries != 1 || cs.Flushes != 1 {
		t.Fatalf("coalesce stats: %+v", cs)
	}
	_, body = do(t, plain, "GET", "/stats", nil)
	if err := json.Unmarshal(body["coalesce"], &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Enabled {
		t.Fatal("plain server reports coalescing enabled")
	}
}

// benchServer measures closed-loop QPS with `clients` concurrent
// goroutines hammering /query — the serving-side view of the paper's
// claim that queries want to travel in blocks. The acceptance workload
// is n=10k, dim 64, 64 clients: overlapping dim-64 Gaussian clusters
// with held-out queries, the compute-bound serving regime where exact
// metric search earns its keep (and where the per-request fixed cost of
// HTTP+JSON does not drown the search itself).
func benchServer(b *testing.B, coalesce bool) {
	const (
		n       = 10000
		dim     = 64
		clients = 64
	)
	all := dataset.GaussianClusters(n+256, dim, 32, 5.0, 7)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	db := all.Subset(ids)
	idx, err := core.BuildExact(db, metric.Euclidean{}, core.ExactParams{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	var s *Server
	if coalesce {
		s = NewExact(db, metric.Euclidean{}, idx, WithCoalescing(clients, 500*time.Microsecond))
		defer s.Close()
	} else {
		s = NewExact(db, metric.Euclidean{}, idx)
	}
	bodies := make([][]byte, 256)
	for i := range bodies {
		bodies[i], _ = json.Marshal(queryRequest{Point: all.Row(n + i), K: 1})
	}
	// RunParallel spawns GOMAXPROCS*parallelism goroutines; round up to
	// reach the target client count.
	b.SetParallelism((clients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 37
		for pb.Next() {
			i++
			req := httptest.NewRequest("POST", "/query", bytes.NewReader(bodies[i%len(bodies)]))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("query: %d", rec.Code)
				return
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "qps")
	}
}

func BenchmarkServerCoalesced(b *testing.B) { benchServer(b, true) }
func BenchmarkServerPerQuery(b *testing.B)  { benchServer(b, false) }
