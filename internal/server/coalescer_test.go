package server

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedRun is a coalescer run function the test controls: every batch
// is announced on entered, then waits for gate to be closed before its
// calls are released.
type gatedRun struct {
	entered chan []*call
	gate    chan struct{}
}

func newGatedRun() *gatedRun {
	return &gatedRun{entered: make(chan []*call), gate: make(chan struct{})}
}

func (g *gatedRun) run(batch []*call) {
	g.entered <- batch
	<-g.gate
	for _, c := range batch {
		c.batch = len(batch)
		c.release()
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// submitAsync submits a call tagged k from its own goroutine and
// returns once the coalescer has accepted it, so calls submitted one
// after another arrive in that order.
func submitAsync(t *testing.T, co *coalescer, k int, wg *sync.WaitGroup) *call {
	t.Helper()
	c := &call{k: k}
	accepted := co.stats().Queries + 1
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := co.submit(c); err != nil {
			t.Errorf("submit %d: %v", k, err)
		}
	}()
	waitFor(t, "a call to be accepted", func() bool { return co.stats().Queries == accepted })
	return c
}

// wantOrder fails unless batch holds exactly the calls tagged from..to-1
// in that order.
func wantOrder(t *testing.T, batch []*call, from, to int) {
	t.Helper()
	if len(batch) != to-from {
		t.Fatalf("batch of %d calls, want %d", len(batch), to-from)
	}
	for i, c := range batch {
		if c.k != from+i {
			t.Fatalf("arrival order broken: call %d at position %d of the batch starting at %d", c.k, i, from)
		}
	}
}

func TestCoalescerLoneCallLeavesOnTimer(t *testing.T) {
	g := newGatedRun()
	co := newCoalescer(8, time.Millisecond, g.run)
	var wg sync.WaitGroup
	c := submitAsync(t, co, 0, &wg)
	wantOrder(t, <-g.entered, 0, 1)
	close(g.gate)
	wg.Wait()
	if c.batch != 1 || c.err != nil {
		t.Fatalf("lone call: batch %d err %v", c.batch, c.err)
	}
	if st := co.stats(); st.Queries != 1 || st.Flushes != 1 || st.WaitFlushes != 1 || st.AvgBatch != 1 {
		t.Fatalf("stats: %+v", st)
	}
	co.close()
}

// Only the size trigger and close can flush here (the timer is an hour
// away): a full batch leaves at once in arrival order, the rest at close.
func TestCoalescerFullBatchLeavesInArrivalOrder(t *testing.T) {
	const maxBatch = 4
	g := newGatedRun()
	close(g.gate)
	co := newCoalescer(maxBatch, time.Hour, g.run)
	var wg sync.WaitGroup
	for i := 0; i < maxBatch; i++ {
		submitAsync(t, co, i, &wg)
	}
	wantOrder(t, <-g.entered, 0, maxBatch)
	for i := maxBatch; i < maxBatch+3; i++ {
		submitAsync(t, co, i, &wg)
	}
	go co.close()
	wantOrder(t, <-g.entered, maxBatch, maxBatch+3)
	wg.Wait()
	if st := co.stats(); st.SizeFlushes != 1 || st.DrainFlushes != 1 || st.WaitFlushes != 0 || st.MaxBatchSeen != maxBatch {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCoalescerCloseDrainsAndLeavesNoGoroutine(t *testing.T) {
	g := newGatedRun()
	co := newCoalescer(8, time.Hour, g.run)
	var wg sync.WaitGroup
	var calls []*call
	for i := 0; i < 3; i++ {
		calls = append(calls, submitAsync(t, co, i, &wg))
	}
	closed := make(chan struct{})
	go func() {
		co.close()
		close(closed)
	}()
	wantOrder(t, <-g.entered, 0, 3) // the drain flush, held at the gate
	select {
	case <-closed:
		t.Fatal("close returned with accepted calls unanswered")
	default:
	}
	if err := co.submit(&call{}); !errors.Is(err, errShuttingDown) {
		t.Fatalf("submit after close: %v", err)
	}
	close(g.gate)
	<-closed
	for i, c := range calls {
		select {
		case <-c.done:
		default:
			t.Fatalf("close returned before call %d was answered", i)
		}
	}
	wg.Wait()
	co.close() // a second close has nothing to drain
	var stacks bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&stacks, 2)
	if strings.Contains(stacks.String(), "server.(*coalescer)") {
		t.Fatalf("a goroutine is still inside the coalescer after close:\n%s", stacks.String())
	}
}

// A run that panics part-way must not strand the calls it had not
// released yet, nor stop the coalescer serving later batches.
func TestCoalescerSurvivesPanickingRun(t *testing.T) {
	const maxBatch, healthy = 3, -1
	co := newCoalescer(maxBatch, time.Hour, func(batch []*call) {
		batch[0].release()
		if batch[0].k != healthy {
			panic("poisoned batch")
		}
		for _, c := range batch[1:] {
			c.release()
		}
	})
	var wg sync.WaitGroup
	var calls []*call
	for i := 0; i < maxBatch; i++ {
		calls = append(calls, submitAsync(t, co, i, &wg))
	}
	wg.Wait()
	if calls[0].err != nil {
		t.Fatalf("call released before the panic got an error: %v", calls[0].err)
	}
	for _, c := range calls[1:] {
		if c.err == nil || !strings.Contains(c.err.Error(), "poisoned batch") {
			t.Fatalf("call %d stranded by the panic: err %v", c.k, c.err)
		}
	}
	calls = calls[:0]
	for i := 0; i < maxBatch; i++ {
		calls = append(calls, submitAsync(t, co, healthy, &wg))
	}
	wg.Wait()
	for _, c := range calls {
		if c.err != nil {
			t.Fatalf("coalescer stopped serving after a panic: %v", c.err)
		}
	}
	co.close()
}
