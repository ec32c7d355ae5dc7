package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/distributed"
	"repro/internal/metric"
)

const clusterShards = 2

// shardProcs are in-process ShardServers on loopback TCP, standing in for
// rbc-shard processes: same ShardServer, same wire protocol, same sockets.
type shardProcs struct {
	servers []*distributed.ShardServer
	addrs   []string
	done    chan error
}

// startShards starts n empty shard servers; with a tracer each listener
// stamps a span per exchange.
func startShards(n int, tr *tracer) (*shardProcs, error) {
	p := &shardProcs{done: make(chan error, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		p.addrs = append(p.addrs, ln.Addr().String())
		if tr != nil {
			ln = tracedListener{Listener: ln, t: tr, name: fmt.Sprintf("shard%d exchange", i)}
		}
		ss := distributed.NewShardServer()
		p.servers = append(p.servers, ss)
		go func() { p.done <- ss.Serve(ln) }()
	}
	return p, nil
}

// close stops every shard server and waits for its Serve to return.
func (p *shardProcs) close() error {
	var first error
	for _, ss := range p.servers {
		ss.Close()
	}
	for range p.servers {
		if err := <-p.done; err != nil && first == nil {
			first = err
		}
	}
	p.servers = nil
	return first
}

// cluster is a built cluster and, once distributed, its shard servers.
type cluster struct {
	cl          *distributed.Cluster
	shards      *shardProcs
	buildS      float64
	distributeS float64
}

// buildCluster is the first half of the cluster workload's set-up: the
// index build and the deal of representatives to shards, on loopback.
func buildCluster(w *world) (*cluster, error) {
	start := time.Now()
	cl, err := distributed.Build(w.db, metric.Euclidean{}, exactParams(w), clusterShards, distributed.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	return &cluster{cl: cl, buildS: time.Since(start).Seconds()}, nil
}

// distribute is the second half: push every shard's state over TCP to a
// fresh shard server (no replicas, no hedging — TCPOptions{}).
func (c *cluster) distribute(tr *tracer) error {
	shards, err := startShards(clusterShards, tr)
	if err != nil {
		return err
	}
	c.shards = shards
	start := time.Now()
	if err := c.cl.Distribute(shards.addrs, distributed.TCPOptions{}); err != nil {
		return err
	}
	c.distributeS = time.Since(start).Seconds()
	return nil
}

func (c *cluster) close() error {
	c.cl.Close()
	if c.shards != nil {
		return c.shards.close()
	}
	return nil
}

// netTotals sums the transport counters over every shard connection.
type netTotals struct {
	requests, retries, failures, sent, recv int64
	rtt                                     time.Duration
}

func (c *cluster) netTotals() netTotals {
	var t netTotals
	for _, s := range c.cl.NetStats() {
		t.requests += s.Requests
		t.retries += s.Retries
		t.failures += s.Failures
		t.sent += s.BytesSent
		t.recv += s.BytesRecv
		t.rtt += s.RTT
	}
	return t
}

func (a netTotals) sub(b netTotals) netTotals {
	return netTotals{a.requests - b.requests, a.retries - b.retries, a.failures - b.failures,
		a.sent - b.sent, a.recv - b.recv, a.rtt - b.rtt}
}
