package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/wal"
)

// rbc-server's flag defaults: what "exactly as rbc-server with no flags
// configures it" means. cmd/rbc-server/main.go is the authority.
const (
	serverBatchMax  = 64
	serverBatchWait = 500 * time.Microsecond
)

// exactParams is every index's build setting: rbc-server's, with the
// world's corpus seed for the representative sample.
func exactParams(w *world) core.ExactParams {
	return core.ExactParams{Seed: w.corpusSeed, EarlyExit: true}
}

// served is a durable server listening on loopback.
type served struct {
	srv  *server.Server
	db   *vec.Dataset // the server's dataset: the corpus clone, grown by every /insert
	dir  string
	http *http.Server
	base string // http://127.0.0.1:port
	done chan error

	closeOnce sync.Once
	closeErr  error
}

// openDurable is the program's own set-up for the serve workload: the
// durable open of a fresh directory, index build included. The corpus
// clone is the benchmark's cost, so the caller makes it before the clock.
func openDurable(w *world, db *vec.Dataset, dir string) (*server.Server, error) {
	srv, _, err := server.OpenDurable(db, metric.Euclidean{}, exactParams(w),
		server.DurabilityOptions{Dir: dir, Sync: wal.SyncAlways},
		server.WithCoalescing(serverBatchMax, serverBatchWait))
	return srv, err
}

// listen puts srv behind net/http on 127.0.0.1:0.
func listen(srv *server.Server, db *vec.Dataset, dir string, tr *tracer) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, db: db, dir: dir, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.http = &http.Server{Handler: tracedHandler(tr, srv)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close drains HTTP, then closes the server (coalescer flush, WAL close):
// the order GracefulServe uses, so every acknowledged write is on disk.
// Closing again returns the first close's error.
func (s *served) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.closeErr = s.http.Shutdown(ctx)
		if serr := <-s.done; serr != http.ErrServerClosed && s.closeErr == nil {
			s.closeErr = serr
		}
		s.srv.Close()
	})
	return s.closeErr
}

type queryReply struct {
	Neighbors []struct {
		ID   int     `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
	Evals int64 `json:"evals"`
}

func (q queryReply) neighbors() []par.Neighbor {
	out := make([]par.Neighbor, len(q.Neighbors))
	for i, n := range q.Neighbors {
		out[i] = par.Neighbor{ID: n.ID, Dist: n.Dist}
	}
	return out
}

// serveStats is what the timed part of a serve phase produced.
type serveStats struct {
	queryNS, insertNS, deleteNS []float64
	windowNS                    []float64 // one per client per serveWindow ops
	evals, queries, bodyBytes   int64     // timed /query ops only
	ops, failed                 int64     // warm-up included
	inserted                    int64
	deleted                     map[int]bool
}

// coalesceBatchMean reads the coalescer's realized mean batch from /stats.
func coalesceBatchMean(s *served) float64 {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Coalesce struct {
			AvgBatch float64 `json:"avg_batch"`
		} `json:"coalesce"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &stats) != nil {
		return 0
	}
	return stats.Coalesce.AvgBatch
}

// runClient runs one closed-loop keep-alive client over its op list; the
// first warm ops are run and not measured.
func runClient(base string, c int, ops []op, warm int, tr *tracer) serveStats {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	st := serveStats{deleted: map[int]bool{}}
	var buf bytes.Buffer
	winStart := time.Now()
	for i, o := range ops {
		if i == warm {
			winStart = time.Now()
		}
		reqID := c*len(ops) + i + 1
		req, err := http.NewRequest(http.MethodPost, base+o.path, bytes.NewReader(o.body))
		if err != nil {
			st.failed++
			continue
		}
		id := tr.begin(0, reqID, "bench", "client "+o.path)
		if id != 0 {
			req.Header.Set(spanHeader, strconv.Itoa(id))
			req.Header.Set(spanHeader+"-Req", strconv.Itoa(reqID))
		}
		t0 := time.Now()
		resp, err := hc.Do(req)
		ok := err == nil
		if ok {
			buf.Reset()
			_, err = io.Copy(&buf, resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode == http.StatusOK
		}
		d := float64(time.Since(t0).Nanoseconds())
		tr.end(id)
		st.ops++
		if !ok {
			st.failed++
			continue
		}
		switch o.path {
		case "/insert":
			st.inserted++
		case "/delete":
			st.deleted[o.id] = true
		}
		if i < warm {
			continue
		}
		switch o.path {
		case "/query":
			var qr queryReply
			if json.Unmarshal(buf.Bytes(), &qr) != nil || len(qr.Neighbors) == 0 {
				st.failed++
				continue
			}
			st.queryNS = append(st.queryNS, d)
			st.queries++
			st.evals += qr.Evals
			st.bodyBytes += int64(len(o.body) + buf.Len())
		case "/insert":
			st.insertNS = append(st.insertNS, d)
		case "/delete":
			st.deleteNS = append(st.deleteNS, d)
		}
		if (i-warm+1)%serveWindow == 0 {
			now := time.Now()
			st.windowNS = append(st.windowNS, float64(now.Sub(winStart).Nanoseconds()))
			winStart = now
		}
	}
	return st
}

// merge adds o's samples and counts to st.
func (st *serveStats) merge(o serveStats) {
	st.queryNS = append(st.queryNS, o.queryNS...)
	st.insertNS = append(st.insertNS, o.insertNS...)
	st.deleteNS = append(st.deleteNS, o.deleteNS...)
	st.windowNS = append(st.windowNS, o.windowNS...)
	st.evals += o.evals
	st.queries += o.queries
	st.bodyBytes += o.bodyBytes
	st.ops += o.ops
	st.failed += o.failed
	st.inserted += o.inserted
	for id := range o.deleted {
		st.deleted[id] = true
	}
}

// runServe drives every client through its op list at once; the first warm
// ops of each are run and not measured.
func runServe(s *served, ops [serveClient][]op, warm int, tr *tracer) serveStats {
	var parts [serveClient]serveStats
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[c] = runClient(s.base, c, ops[c], warm, tr)
		}()
	}
	wg.Wait()
	st := serveStats{deleted: map[int]bool{}}
	for _, p := range parts {
		st.merge(p)
	}
	return st
}

// qps is clients × window ops ÷ median window time. The serve metrics are
// plain medians: an op here is not a repetition of an input (its latency is
// mostly the coalescer's wait for the other client), and on the raw samples
// of eight runs no quantile or quietest-stretch estimator repeated better
// than the median (4.2–4.6 % spread; they ranged 2.1–6.0 %).
func (st serveStats) qps() float64 {
	return serveClient * serveWindow / (median(st.windowNS) / 1e9)
}

// liveTruth answers probe by exact-grade brute force over the live rows of
// db (every row not in deleted), ids mapped back to database ids.
func liveTruth(db *vec.Dataset, deleted map[int]bool, probe *vec.Dataset, k int) [][]par.Neighbor {
	live := make([]int, 0, db.N())
	for i := 0; i < db.N(); i++ {
		if !deleted[i] {
			live = append(live, i)
		}
	}
	want := bruteforce.SearchK(probe, db.Subset(live), k, metric.Euclidean{}, nil)
	for _, row := range want {
		for j := range row {
			row[j].ID = live[row[j].ID]
		}
	}
	return want
}

// probeHandler asks h the probe queries one by one and returns the answers
// and, from /stats, the live count.
func probeHandler(h http.Handler, probe *vec.Dataset, k int) ([][]par.Neighbor, int, error) {
	got := make([][]par.Neighbor, probe.N())
	for i := range got {
		rec := httptest.NewRecorder()
		body := mustJSON(map[string]any{"point": probe.Row(i), "k": k})
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		var qr queryReply
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &qr) != nil {
			return nil, 0, fmt.Errorf("probe %d: status %d", i, rec.Code)
		}
		got[i] = qr.neighbors()
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		Live int `json:"live"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		return nil, 0, err
	}
	return got, stats.Live, nil
}

// serveGates checks the serve workload's two contracts after a run: the
// server's answers equal brute force over the live rows, and re-opening the
// data directory on a fresh copy of the corpus recovers the same live count
// and the same answers — every acknowledged write survived. It closes s
// and returns the number of probes that failed either check, how long the
// re-open took, and the re-opened server, which the caller closes.
func serveGates(s *served, w *world, st serveStats) (mismatched int64, recoveryS float64, re *server.Server, err error) {
	probe := w.probes
	got, live, err := probeHandler(s.srv, probe, w.spec.k)
	if err != nil {
		return 0, 0, nil, err
	}
	want := liveTruth(s.db, st.deleted, probe, w.spec.k)
	mismatched = sameAnswers(got, want)
	if wantLive := w.spec.n + int(st.inserted) - len(st.deleted); live != wantLive {
		return 0, 0, nil, fmt.Errorf("server reports %d live rows, acknowledged writes leave %d", live, wantLive)
	}
	if err := s.close(); err != nil {
		return 0, 0, nil, err
	}
	boot := w.db.Clone()
	start := time.Now()
	re, err = openDurable(w, boot, s.dir)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("re-open %s: %w", s.dir, err)
	}
	recoveryS = time.Since(start).Seconds()
	again, relive, err := probeHandler(re, probe, w.spec.k)
	if err == nil && relive != live {
		err = fmt.Errorf("recovered %d live rows, had %d before close", relive, live)
	}
	if err != nil {
		re.Close()
		return 0, 0, nil, err
	}
	return mismatched + sameAnswers(again, want), recoveryS, re, nil
}

// freshDir makes an empty data directory under the run's scratch root.
func freshDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "data-")
}
