// Package server exposes an RBC index over HTTP/JSON — the deployment
// surface a production NN service needs. Queries run concurrently;
// mutations (insert/delete/rebuild, exact indexes only) serialize behind
// a write lock, matching the index's concurrency contract.
//
// # Request coalescing
//
// The tiled kernels underneath the indexes want *blocks* of queries —
// BF(Q,R) as a matrix-matrix product — but HTTP delivers queries one at
// a time. With WithCoalescing enabled, concurrent /query requests park
// briefly and are flushed as one KNNBatch call: a batch flushes when it
// reaches MaxBatch queries or when MaxWait has elapsed since its first
// query parked, whichever comes first. Responses are bit-identical to
// the per-query path; the tradeoff is explicit and bounded — a lone
// query pays at most MaxWait extra latency so that concurrent traffic
// shares one tiled front half (and one lock acquisition) instead of n.
// The per-response "evals" fields of a block sum to the block's
// aggregate work and "batch" reports the realized batch size; the
// /stats endpoint exposes flush counters for tuning the two knobs. On
// exact indexes, /range requests coalesce identically through a second
// queue flushed via Exact.RangeBatch (grouped by eps, since RangeBatch
// takes one radius per block), reported under "range_coalesce" in
// /stats.
//
// Request bodies are size-limited (413 beyond a bound computed from the
// index dimension), decoded and validated before any lock is taken, so a
// client can neither make the server allocate without bound nor stall
// writers.
//
// Endpoints:
//
//	GET  /healthz              liveness probe
//	GET  /stats                index metadata, live-point count, coalescer counters
//	POST /query                {"point":[…],"k":3}        → neighbors
//	POST /range                {"point":[…],"eps":0.5}    → neighbors
//	POST /insert               {"point":[…]}              → {"id":n}
//	POST /delete               {"id":7}
//	POST /rebuild              fold pending mutations
//	POST /snapshot             commit a snapshot generation (durable servers)
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// reader is the index as /query sees it: per-query KNN, and the block
// entry point the coalescer flushes through. *core.Exact and
// *core.OneShot implement it.
type reader interface {
	KNN(q []float32, k int) ([]par.Neighbor, core.Stats)
	KNNBatch(queries *vec.Dataset, k int) ([][]par.Neighbor, core.Stats)
}

// Server wraps one index over one dataset.
type Server struct {
	mu      sync.RWMutex
	db      *vec.Dataset
	m       metric.Metric[[]float32]
	idx     reader      // the index, as /query sees it
	exact   *core.Exact // the same index when it is exact, for /range, mutation, durability; else nil
	numReps func() int
	mux     *http.ServeMux
	co      *coalescer  // non-nil when query coalescing is enabled
	rco     *coalescer  // non-nil when coalescing is enabled on an exact index (/range)
	dur     *durability // non-nil on durable servers (see durable.go)
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithCoalescing parks concurrent /query requests and answers them in
// batches of up to maxBatch queries, waiting at most maxWait for a batch
// to fill (maxWait <= 0 selects 500µs). maxBatch <= 1 disables
// coalescing. On an exact index, /range requests coalesce through a
// second queue with the same knobs (RangeBatch takes one eps per block,
// so mixed-eps traffic splits the flush like mixed-k /query traffic
// does). See the package comment for the latency/throughput tradeoff.
func WithCoalescing(maxBatch int, maxWait time.Duration) Option {
	return func(s *Server) {
		if maxBatch <= 1 {
			return
		}
		byK := func(c *call) int { return s.clampK(c.k) }
		s.co = newCoalescer(maxBatch, maxWait, func(batch []*call) { runBatch(s, batch, byK, s.idx.KNNBatch) })
		if s.exact != nil {
			byEps := func(c *call) float64 { return c.eps }
			s.rco = newCoalescer(maxBatch, maxWait, func(batch []*call) { runBatch(s, batch, byEps, s.exact.RangeBatch) })
		}
	}
}

// NewExact builds a server around an exact index (mutations enabled).
func NewExact(db *vec.Dataset, m metric.Metric[[]float32], idx *core.Exact, opts ...Option) *Server {
	return newServer(&Server{db: db, m: m, idx: idx, exact: idx, numReps: idx.NumReps}, opts)
}

// NewOneShot builds a read-only server around a one-shot index.
func NewOneShot(db *vec.Dataset, m metric.Metric[[]float32], idx *core.OneShot, opts ...Option) *Server {
	return newServer(&Server{db: db, m: m, idx: idx, numReps: idx.NumReps}, opts)
}

func newServer(s *Server, opts []Option) *Server {
	for _, o := range opts {
		o(s)
	}
	s.routes()
	return s
}

// Close flushes any parked coalesced queries as a final batch and makes
// subsequent coalesced queries fail with 503; on a durable server it
// also stops the snapshot loop and closes the WAL (one final fsync
// under SyncInterval/SyncNone). Safe to call multiple times; a no-op
// when neither coalescing nor durability is configured.
func (s *Server) Close() {
	if s.co != nil {
		s.co.close()
	}
	if s.rco != nil {
		s.rco.close()
	}
	if s.dur != nil {
		_ = s.dur.close()
	}
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /range", s.handleRange)
	mux.HandleFunc("POST /insert", s.handleInsert)
	mux.HandleFunc("POST /delete", s.handleDelete)
	mux.HandleFunc("POST /rebuild", s.handleRebuild)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type statsBody struct {
	Mode          string           `json:"mode"`
	Metric        string           `json:"metric"`
	Points        int              `json:"points"`
	Live          int              `json:"live"`
	Dim           int              `json:"dim"`
	NumReps       int              `json:"num_reps"`
	Dirty         bool             `json:"dirty"`
	Buffered      int              `json:"buffered"`
	SegMerges     int64            `json:"seg_merges"`
	Coalesce      coalesceStats    `json:"coalesce"`
	RangeCoalesce coalesceStats    `json:"range_coalesce"`
	Durability    *durabilityStats `json:"durability,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	body := statsBody{Mode: "oneshot", Metric: s.m.Name(), Points: s.db.N(), Live: s.db.N(), Dim: s.db.Dim, NumReps: s.numReps()}
	if s.exact != nil {
		body.Mode = "exact"
		body.Live = s.exact.Live()
		body.Dirty = s.exact.Dirty()
		body.Buffered = s.exact.Buffered()
		body.SegMerges = s.exact.SegMerges()
	}
	if s.dur != nil {
		body.Durability = s.dur.stats()
	}
	s.mu.RUnlock()
	if s.co != nil {
		body.Coalesce = s.co.stats()
	}
	if s.rco != nil {
		body.RangeCoalesce = s.rco.stats()
	}
	writeJSON(w, http.StatusOK, body)
}

type queryRequest struct {
	Point []float32 `json:"point"`
	K     int       `json:"k"`
	Eps   float64   `json:"eps"`
}

type neighborBody struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

type queryResponse struct {
	Neighbors []neighborBody `json:"neighbors"`
	Evals     int64          `json:"evals"`
	Batch     int            `json:"batch,omitempty"`
}

// Request bodies are bounded before they are decoded: a point is dim
// JSON numbers, and bodyBytesPerCoord covers the longest spelling a
// float64 encoder produces (24 bytes) plus separator and whitespace.
const (
	bodyBytesPerCoord = 32
	bodySlack         = 1024 // field names, k/eps/id, punctuation
)

// decodeBody decodes a size-limited JSON request body into v, answering
// 413 or 400 itself when it cannot. It takes no lock: the body read can
// stall on a slow client, and db.Dim is immutable after construction
// (Append never changes it).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	limit := int64(s.db.Dim)*bodyBytesPerCoord + bodySlack
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
	} else {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	}
	return false
}

// decodePoint decodes and validates a request body carrying a point.
func (s *Server) decodePoint(w http.ResponseWriter, r *http.Request) (queryRequest, bool) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return req, false
	}
	if len(req.Point) != s.db.Dim {
		writeError(w, http.StatusBadRequest, "point has %d dims, index has %d", len(req.Point), s.db.Dim)
		return req, false
	}
	return req, true
}

func neighborBodies(nbs []par.Neighbor) []neighborBody {
	out := make([]neighborBody, len(nbs))
	for i, nb := range nbs {
		out[i] = neighborBody{ID: nb.ID, Dist: nb.Dist}
	}
	return out
}

// answer serves one read request: through co when coalescing is on
// (c parks until its batch is flushed), otherwise by calling one under
// the read lock.
func (s *Server) answer(w http.ResponseWriter, co *coalescer, c *call, one func() ([]par.Neighbor, core.Stats)) {
	if co == nil {
		s.mu.RLock()
		nbs, st := one()
		s.mu.RUnlock()
		writeJSON(w, http.StatusOK, queryResponse{Neighbors: neighborBodies(nbs), Evals: st.TotalEvals()})
		return
	}
	if err := co.submit(c); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if c.err != nil {
		writeError(w, http.StatusInternalServerError, "%v", c.err)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{Neighbors: neighborBodies(c.nbs), Evals: c.evals, Batch: c.batch})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodePoint(w, r)
	if !ok {
		return
	}
	if req.K <= 0 {
		req.K = 1
	}
	s.answer(w, s.co, &call{point: req.Point, k: req.K}, func() ([]par.Neighbor, core.Stats) {
		return s.idx.KNN(req.Point, s.clampK(req.K))
	})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodePoint(w, r)
	if !ok {
		return
	}
	if req.Eps < 0 {
		writeError(w, http.StatusBadRequest, "eps must be non-negative")
		return
	}
	if s.exact == nil {
		writeError(w, http.StatusNotImplemented, "range search requires an exact index")
		return
	}
	s.answer(w, s.rco, &call{point: req.Point, eps: req.Eps}, func() ([]par.Neighbor, core.Stats) {
		return s.exact.Range(req.Point, req.Eps)
	})
}

// clampK bounds a client-supplied k by the database size: more
// neighbors cannot exist, and an unbounded k would otherwise size heap
// allocations. Callers hold at least the read lock (db can grow).
func (s *Server) clampK(k int) int {
	if n := s.db.N(); k > n {
		return n
	}
	return k
}

// runBatch executes one coalesced batch under one read lock: group the
// calls by key (KNNBatch takes a single k and RangeBatch a single eps
// for the whole block, so mixed traffic splits into one block per
// distinct value), run each group through the index's batch entry point
// block, and release each row to its waiting handler. The batch path
// aggregates work across a block; its calls' evals sum to that total.
func runBatch[K comparable](s *Server, batch []*call, key func(*call) K,
	block func(*vec.Dataset, K) ([][]par.Neighbor, core.Stats)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	groups := make(map[K][]*call, 1)
	for _, c := range batch {
		k := key(c)
		groups[k] = append(groups[k], c)
	}
	for k, calls := range groups {
		ds := vec.New(s.db.Dim, len(calls))
		for _, c := range calls {
			ds.Append(c.point)
		}
		nbs, st := block(ds, k)
		n := int64(len(calls))
		share, extra := st.TotalEvals()/n, st.TotalEvals()%n
		for i, c := range calls {
			c.nbs = nbs[i]
			c.evals = share
			if int64(i) < extra {
				c.evals++
			}
			c.batch = len(batch)
			c.release()
		}
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodePoint(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exact == nil {
		writeError(w, http.StatusNotImplemented, "mutations require an exact index")
		return
	}
	// Write-ahead: the record reaches the log (durable per the sync
	// mode) before the in-memory apply and the acknowledgment. A failed
	// append applies nothing — the index stays consistent with the log.
	if s.dur != nil {
		if err := s.dur.logInsert(req.Point); err != nil {
			writeError(w, http.StatusInternalServerError, "wal append: %v", err)
			return
		}
	}
	id := s.exact.Insert(req.Point)
	writeJSON(w, http.StatusOK, map[string]int{"id": id})
}

type deleteRequest struct {
	ID int `json:"id"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exact == nil {
		writeError(w, http.StatusNotImplemented, "mutations require an exact index")
		return
	}
	// Validate before logging (CheckDelete mutates nothing), so a logged
	// delete always applies cleanly — both here and at replay.
	if err := s.exact.CheckDelete(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.dur != nil {
		if err := s.dur.logDelete(req.ID); err != nil {
			writeError(w, http.StatusInternalServerError, "wal append: %v", err)
			return
		}
	}
	if err := s.exact.Delete(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exact == nil {
		writeError(w, http.StatusNotImplemented, "mutations require an exact index")
		return
	}
	s.exact.Rebuild()
	writeJSON(w, http.StatusOK, map[string]string{"status": "rebuilt"})
}

// handleSnapshot commits a new snapshot generation on demand (durable
// servers only); the WAL resets behind the snapshot barrier.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.dur == nil {
		writeError(w, http.StatusNotImplemented, "snapshots require a durable server (-data-dir)")
		return
	}
	gen, err := s.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"generation": gen})
}
