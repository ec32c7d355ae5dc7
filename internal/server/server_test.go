package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/vec"
)

func testData(n int) *vec.Dataset {
	rng := rand.New(rand.NewSource(1))
	db := vec.New(3, n)
	for i := 0; i < n; i++ {
		c := float32(rng.Intn(5)) * 4
		db.Append([]float32{c + rng.Float32(), c + rng.Float32(), c + rng.Float32()})
	}
	return db
}

func newExactServer(t *testing.T, n int) (*Server, *vec.Dataset) {
	t.Helper()
	db := testData(n)
	idx, err := core.BuildExact(db, metric.Euclidean{}, core.ExactParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return NewExact(db, metric.Euclidean{}, idx), db
}

func do(t *testing.T, s *Server, method, path string, body interface{}) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var parsed map[string]json.RawMessage
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("%s %s: bad JSON %q", method, path, rec.Body.String())
		}
	}
	return rec, parsed
}

func TestHealthAndStats(t *testing.T) {
	s, db := newExactServer(t, 300)
	rec, _ := do(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	rec, body := do(t, s, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st statsBody
	raw, _ := json.Marshal(body)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "exact" || st.Points != db.N() || st.Dim != 3 || st.Dirty {
		t.Fatalf("stats body: %+v", st)
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	s, db := newExactServer(t, 500)
	q := []float32{4.2, 4.1, 4.3}
	rec, _ := do(t, s, "POST", "/query", queryRequest{Point: q, K: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := bruteforce.SearchOneK(q, db, 3, metric.Euclidean{}, nil)
	if len(resp.Neighbors) != 3 {
		t.Fatalf("neighbors: %v", resp.Neighbors)
	}
	for i := range want {
		if resp.Neighbors[i].Dist != want[i].Dist {
			t.Fatalf("pos %d: %v want %v", i, resp.Neighbors[i].Dist, want[i].Dist)
		}
	}
	if resp.Evals == 0 {
		t.Fatal("evals missing")
	}
}

func TestQueryValidation(t *testing.T) {
	s, _ := newExactServer(t, 100)
	rec, _ := do(t, s, "POST", "/query", queryRequest{Point: []float32{1, 2}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("dim mismatch: %d", rec.Code)
	}
	req := httptest.NewRequest("POST", "/query", bytes.NewReader([]byte("{not json")))
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", rec2.Code)
	}
	// Default k is 1.
	rec3, _ := do(t, s, "POST", "/query", queryRequest{Point: []float32{0, 0, 0}})
	var resp queryResponse
	if err := json.Unmarshal(rec3.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != 1 {
		t.Fatalf("default k: %v", resp.Neighbors)
	}
}

func TestRangeEndpoint(t *testing.T) {
	s, db := newExactServer(t, 400)
	q := []float32{8.5, 8.5, 8.5}
	rec, _ := do(t, s, "POST", "/range", queryRequest{Point: q, Eps: 1.5})
	if rec.Code != http.StatusOK {
		t.Fatalf("range: %d %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := bruteforce.RangeSearch(q, db, 1.5, metric.Euclidean{}, nil)
	if len(resp.Neighbors) != len(want) {
		t.Fatalf("range hits %d want %d", len(resp.Neighbors), len(want))
	}
	rec2, _ := do(t, s, "POST", "/range", queryRequest{Point: q, Eps: -1})
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("negative eps: %d", rec2.Code)
	}
}

func TestMutationLifecycle(t *testing.T) {
	s, db := newExactServer(t, 200)
	// Insert a point, find it, delete it, stop finding it.
	p := []float32{-50, -50, -50}
	rec, body := do(t, s, "POST", "/insert", queryRequest{Point: p})
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body.String())
	}
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	if id != 200 {
		t.Fatalf("insert id %d", id)
	}
	rec, _ = do(t, s, "POST", "/query", queryRequest{Point: p, K: 1})
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Neighbors[0].ID != id || resp.Neighbors[0].Dist != 0 {
		t.Fatalf("inserted point not found: %+v", resp.Neighbors[0])
	}
	// Stats should report dirty and live=201.
	_, sb := do(t, s, "GET", "/stats", nil)
	var st statsBody
	raw, _ := json.Marshal(sb)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Dirty || st.Live != 201 {
		t.Fatalf("stats after insert: %+v", st)
	}
	// Delete it.
	rec, _ = do(t, s, "POST", "/delete", deleteRequest{ID: id})
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	rec, _ = do(t, s, "POST", "/query", queryRequest{Point: p, K: 1})
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Neighbors[0].ID == id {
		t.Fatal("deleted point still returned")
	}
	// Rebuild and confirm cleanliness.
	rec, _ = do(t, s, "POST", "/rebuild", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rebuild: %d", rec.Code)
	}
	// Double delete errors.
	rec, _ = do(t, s, "POST", "/delete", deleteRequest{ID: id})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("double delete: %d", rec.Code)
	}
	_ = db
}

func TestOneShotServerReadOnly(t *testing.T) {
	db := testData(300)
	idx, err := core.BuildOneShot(db, metric.Euclidean{}, core.OneShotParams{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := NewOneShot(db, metric.Euclidean{}, idx)
	rec, _ := do(t, s, "POST", "/query", queryRequest{Point: []float32{1, 1, 1}, K: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("oneshot query: %d", rec.Code)
	}
	for _, path := range []string{"/insert", "/delete", "/rebuild", "/range"} {
		rec, _ := do(t, s, "POST", path, queryRequest{Point: []float32{1, 1, 1}})
		if rec.Code != http.StatusNotImplemented {
			t.Fatalf("%s on oneshot: %d", path, rec.Code)
		}
	}
	_, sb := do(t, s, "GET", "/stats", nil)
	var st statsBody
	raw, _ := json.Marshal(sb)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "oneshot" {
		t.Fatalf("mode: %+v", st)
	}
}

func TestMethodRouting(t *testing.T) {
	s, _ := newExactServer(t, 100)
	req := httptest.NewRequest("GET", "/query", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Fatalf("GET /query: %d", rec.Code)
	}
}

func TestConcurrentQueriesAndMutations(t *testing.T) {
	s, db := newExactServer(t, 400)
	// Snapshot query points: the server may grow db concurrently, and
	// Dataset rows are views into a reallocatable buffer.
	points := make([][]float32, 20)
	for i := range points {
		points[i] = append([]float32(nil), db.Row(i)...)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (w + i) % 3 {
				case 0:
					rec, _ := do(t, s, "POST", "/query", queryRequest{Point: points[i], K: 2})
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("query: %d", rec.Code)
					}
				case 1:
					rec, _ := do(t, s, "POST", "/insert", queryRequest{Point: []float32{float32(w), float32(i), 0}})
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("insert: %d", rec.Code)
					}
				case 2:
					rec, _ := do(t, s, "GET", "/stats", nil)
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("stats: %d", rec.Code)
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
}
