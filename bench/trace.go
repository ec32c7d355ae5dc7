package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// bench/ code only. Spans of one request (one round, one HTTP op) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// which is how end-to-end runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cur is the coordinator-side span a shard exchange belongs to: the
	// cluster driver is single-threaded, so whatever Cluster call is in
	// flight when a shard reads a request is that request's cause.
	cur    atomic.Int64
	curReq atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(parent, req int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: t.now()})
	return id
}

// end closes span id; closing again moves the end later (a shard reply
// written in several pieces ends at its last byte).
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// traceFile is the span file written at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Roots    int    `json:"roots"`
	// RootNS + SiblingOverlapNS == SumSelfNS: every nanosecond of a root
	// is the self time of exactly one span under it.
	RootNS           int64            `json:"root_ns"`
	SumSelfNS        int64            `json:"sum_self_ns"`
	SiblingOverlapNS int64            `json:"sibling_overlap_ns"`
	SelfNSByLayer    map[string]int64 `json:"self_ns_by_layer"`
	SelfNSByName     map[string]int64 `json:"self_ns_by_name"`
	Spans            []span           `json:"spans"`
}

func (t *tracer) file(workload string, seed int64) traceFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := traceFile{Workload: workload, Seed: seed, SelfNSByLayer: map[string]int64{}, SelfNSByName: map[string]int64{}}
	// Parents are opened before their children, so in id order every
	// parent is final before its children are clipped to it. A shard
	// stamps the end of an exchange after its reply is on the wire, by
	// which time the coordinator's call may already have returned.
	clipped := make(map[int]span, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // an exchange cut off by shutdown never ended
		}
		if p, ok := clipped[s.Parent]; ok {
			s.Start = min(max(s.Start, p.Start), p.End)
			s.End = max(min(s.End, p.End), s.Start)
		}
		clipped[s.ID] = s
		f.Spans = append(f.Spans, s)
	}
	self, overlap := selfTimes(f.Spans)
	f.SiblingOverlapNS = overlap
	for _, s := range f.Spans {
		if s.Parent == 0 {
			f.Roots++
			f.RootNS += s.End - s.Start
		}
		f.SumSelfNS += self[s.ID]
		f.SelfNSByLayer[s.Layer] += self[s.ID]
		f.SelfNSByName[s.Name] += self[s.ID]
	}
	return f
}

func (t *tracer) write(path, workload string, seed int64) error {
	f := t.file(workload, seed)
	if f.RootNS+f.SiblingOverlapNS != f.SumSelfNS {
		return fmt.Errorf("trace: self times sum to %d ns, roots to %d ns (+%d ns sibling overlap)",
			f.SumSelfNS, f.RootNS, f.SiblingOverlapNS)
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanHeader carries the client span's id to the handler wrapper.
const spanHeader = "X-Bench-Span"

// tracedHandler records a server-layer span around h for every request
// that names its client span, so the client span's self time is HTTP,
// loopback and scheduling, and the child's is Server.ServeHTTP.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.Atoi(r.Header.Get(spanHeader + "-Req"))
		id := t.begin(parent, req, "server", "Server.ServeHTTP "+r.URL.Path)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedListener wraps the listener a ShardServer serves on: each accepted
// connection stamps a span from the first byte of a request to the last
// byte of its reply, parented to the Cluster call in flight.
type tracedListener struct {
	net.Listener
	t    *tracer
	name string
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, name: l.name}, nil
}

// tracedConn is used by one ShardServer handler goroutine at a time
// (strict request/reply framing), so its fields need no lock.
type tracedConn struct {
	net.Conn
	t       *tracer
	name    string
	id      int  // open span, 0 between exchanges
	replied bool // a reply byte was written since the span opened
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && (c.id == 0 || c.replied) {
		if parent := int(c.t.cur.Load()); parent != 0 {
			c.id = c.t.begin(parent, int(c.t.curReq.Load()), "distributed", c.name)
			// The bytes were on the socket before Read returned;
			// the span starts when the shard first saw them.
		} else {
			c.id = 0
		}
		c.replied = false
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 && c.id != 0 {
		c.t.end(c.id)
		c.replied = true
	}
	return n, err
}
