package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/par"
)

// errShuttingDown is returned by submit once the coalescer has been
// closed; handlers translate it to 503.
var errShuttingDown = errors.New("server: shutting down")

// call is one parked /query or /range request awaiting a coalesced
// flush. The flusher fills nbs/evals/batch (or err) and releases it;
// released is only touched by the one goroutine running the batch, so it
// needs no lock.
type call struct {
	point []float32
	k     int     // /query: neighbors requested
	eps   float64 // /range: search radius

	nbs      []par.Neighbor
	evals    int64
	batch    int // realized batch size, reported back for observability
	err      error
	released bool

	done chan struct{}
}

// release hands the call back to its waiting handler.
func (c *call) release() {
	c.released = true
	close(c.done)
}

// coalescer parks concurrent queries briefly and flushes them as one
// KNNBatch call. A batch is flushed when it reaches maxBatch queries
// (flushed inline by the arriving request's goroutine) or when maxWait
// has elapsed since its first query parked (flushed by a timer
// goroutine), whichever comes first. The tradeoff is explicit: a lone
// query pays up to maxWait of extra latency to give concurrent traffic a
// shot at sharing one tiled BF(Q,R) front half.
type coalescer struct {
	run      func([]*call) // executes one flushed batch (takes the server lock)
	maxBatch int
	maxWait  time.Duration

	mu     sync.Mutex
	queue  []*call
	gen    uint64 // bumped per flush; lets stale timers detect they lost
	closed bool

	// Metrics, guarded by mu.
	queries      int64 // queries accepted
	flushes      int64 // batches executed
	sizeFlushes  int64 // ... because the batch filled
	waitFlushes  int64 // ... because maxWait elapsed
	drainFlushes int64 // ... because Close drained the queue
	maxSeen      int   // largest realized batch
}

func newCoalescer(maxBatch int, maxWait time.Duration, run func([]*call)) *coalescer {
	if maxWait <= 0 {
		maxWait = 500 * time.Microsecond
	}
	return &coalescer{run: run, maxBatch: maxBatch, maxWait: maxWait}
}

// submit parks c until the batch it joined is flushed. It returns
// errShuttingDown (without running c) if the coalescer is closed.
func (co *coalescer) submit(c *call) error {
	c.done = make(chan struct{})
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return errShuttingDown
	}
	co.queue = append(co.queue, c)
	co.queries++
	if len(co.queue) >= co.maxBatch {
		batch := co.takeLocked(&co.sizeFlushes)
		co.mu.Unlock()
		co.safeRun(batch)
	} else {
		if len(co.queue) == 1 {
			gen := co.gen
			time.AfterFunc(co.maxWait, func() { co.fire(gen) })
		}
		co.mu.Unlock()
	}
	<-c.done
	return nil
}

// fire is the timer path: flush the batch that was open at generation
// gen, unless it was already flushed (by size, by Close, or by an earlier
// timer).
func (co *coalescer) fire(gen uint64) {
	co.mu.Lock()
	if co.closed || co.gen != gen || len(co.queue) == 0 {
		co.mu.Unlock()
		return
	}
	batch := co.takeLocked(&co.waitFlushes)
	co.mu.Unlock()
	co.safeRun(batch)
}

// takeLocked detaches the open batch, advances the generation and
// records metrics. Callers hold mu and pass the counter classifying what
// triggered the flush.
func (co *coalescer) takeLocked(kind *int64) []*call {
	batch := co.queue
	co.queue = nil
	co.gen++
	co.flushes++
	*kind++
	if len(batch) > co.maxSeen {
		co.maxSeen = len(batch)
	}
	return batch
}

// close drains any parked queries (running them as one final batch) and
// makes future submits fail fast. Idempotent.
func (co *coalescer) close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	var batch []*call
	if len(co.queue) > 0 {
		batch = co.takeLocked(&co.drainFlushes)
	}
	co.mu.Unlock()
	if batch != nil {
		co.safeRun(batch)
	}
}

// safeRun executes one flushed batch. Every call is released no matter
// what: a panic out of the index (or a poisoned query) must not strand
// the other parked handlers.
func (co *coalescer) safeRun(batch []*call) {
	defer func() {
		if r := recover(); r != nil {
			for _, c := range batch {
				if !c.released {
					c.err = fmt.Errorf("batch failed: %v", r)
					c.release()
				}
			}
		}
	}()
	co.run(batch)
}

// coalesceStats is the /stats projection of the coalescer's counters.
type coalesceStats struct {
	Enabled      bool    `json:"enabled"`
	MaxBatch     int     `json:"max_batch"`
	MaxWaitUS    int64   `json:"max_wait_us"`
	Queries      int64   `json:"queries"`
	Flushes      int64   `json:"flushes"`
	SizeFlushes  int64   `json:"size_flushes"`
	WaitFlushes  int64   `json:"wait_flushes"`
	DrainFlushes int64   `json:"drain_flushes"`
	MaxBatchSeen int     `json:"max_batch_seen"`
	AvgBatch     float64 `json:"avg_batch"`
}

func (co *coalescer) stats() coalesceStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := coalesceStats{
		Enabled:      true,
		MaxBatch:     co.maxBatch,
		MaxWaitUS:    co.maxWait.Microseconds(),
		Queries:      co.queries,
		Flushes:      co.flushes,
		SizeFlushes:  co.sizeFlushes,
		WaitFlushes:  co.waitFlushes,
		DrainFlushes: co.drainFlushes,
		MaxBatchSeen: co.maxSeen,
	}
	if co.flushes > 0 {
		st.AvgBatch = float64(co.queries-int64(len(co.queue))) / float64(co.flushes)
	}
	return st
}
