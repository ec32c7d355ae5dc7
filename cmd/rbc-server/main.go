// Command rbc-server serves an RBC index over HTTP/JSON. See
// internal/server for the endpoint reference.
//
//	rbc-server -data robot.rbcv -mode exact -addr :8080
//	curl -s localhost:8080/stats
//	curl -s -XPOST localhost:8080/query -d '{"point":[0.1,...],"k":5}'
//
// With -data-dir the exact mode serves durably: mutations are
// write-ahead logged (fsynced per -wal-sync) and snapshots commit via
// POST /snapshot or the -snapshot-every timer. On restart the server
// recovers from the committed snapshot plus WAL replay; -data is then
// only needed to bootstrap a fresh directory. See internal/server's
// durability documentation for the recovery contract.
//
//	rbc-server -data robot.rbcv -data-dir /var/lib/rbc -wal-sync always
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	rbc "repro"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/wal"
)

func main() {
	var (
		dataPath     = flag.String("data", "", "dataset file (RBCV binary; required unless -data-dir holds a snapshot)")
		dataDir      = flag.String("data-dir", "", "durability directory (WAL + snapshots; exact mode only)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always, interval, or none")
		walEvery     = flag.Duration("wal-sync-every", 50*time.Millisecond, "group-commit interval under -wal-sync interval")
		snapEvery    = flag.Duration("snapshot-every", 0, "periodic snapshot interval (0 disables; POST /snapshot always works)")
		mode         = flag.String("mode", "exact", "index type: exact or oneshot")
		numReps      = flag.Int("reps", 0, "number of representatives (0 = sqrt(n))")
		seed         = flag.Int64("seed", 1, "random seed")
		addr         = flag.String("addr", ":8080", "listen address")
		batchMax     = flag.Int("batch-max", 64, "coalesce up to this many concurrent queries per batch (<=1 disables)")
		batchWait    = flag.Duration("batch-wait", 500*time.Microsecond, "max time a query parks waiting for its batch to fill")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()
	if *dataPath == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "rbc-server: -data is required (or -data-dir with an existing snapshot)")
		os.Exit(2)
	}
	var db *vec.Dataset
	var err error
	if *dataPath != "" {
		db, err = vec.LoadFile(*dataPath)
		if err != nil {
			log.Fatalf("rbc-server: %v", err)
		}
	}
	m := rbc.Euclidean()
	coalesce := server.WithCoalescing(*batchMax, *batchWait)
	var srv *server.Server
	start := time.Now()
	switch *mode {
	case "exact":
		prm := rbc.ExactParams{NumReps: *numReps, Seed: *seed}
		if *dataDir != "" {
			sm, err := wal.ParseSyncMode(*walSync)
			if err != nil {
				log.Fatalf("rbc-server: %v", err)
			}
			var replay wal.ReplayStats
			srv, replay, err = server.OpenDurable(db, m, prm, server.DurabilityOptions{
				Dir: *dataDir, Sync: sm, SyncEvery: *walEvery, SnapshotEvery: *snapEvery,
			}, coalesce)
			if err != nil {
				log.Fatalf("rbc-server: %v", err)
			}
			log.Printf("durable exact index from %s: %d records replayed (%d bytes truncated), ready in %v",
				*dataDir, replay.Records, replay.TruncatedBytes, time.Since(start))
			break
		}
		idx, err := rbc.BuildExact(db, m, prm)
		if err != nil {
			log.Fatalf("rbc-server: %v", err)
		}
		srv = server.NewExact(db, m, idx, coalesce)
		log.Printf("exact index: %d points, %d representatives (built in %v)",
			db.N(), idx.NumReps(), time.Since(start))
	case "oneshot":
		if *dataDir != "" {
			log.Fatalf("rbc-server: -data-dir requires -mode exact (one-shot indexes are read-only)")
		}
		idx, err := rbc.BuildOneShot(db, m, rbc.OneShotParams{NumReps: *numReps, Seed: *seed})
		if err != nil {
			log.Fatalf("rbc-server: %v", err)
		}
		srv = server.NewOneShot(db, m, idx, coalesce)
		log.Printf("one-shot index: %d points, %d representatives, s=%d (built in %v)",
			db.N(), idx.NumReps(), idx.S(), time.Since(start))
	default:
		log.Fatalf("rbc-server: unknown mode %q", *mode)
	}
	if *batchMax > 1 {
		log.Printf("query coalescing: up to %d queries per batch, max wait %v", *batchMax, *batchWait)
	}
	// On SIGINT/SIGTERM, drain in-flight HTTP requests (http.Server
	// Shutdown), then flush parked coalesced queries and close the WAL.
	// The old path (srv.Close + os.Exit around ListenAndServe) cut
	// responses mid-body and could ack an /insert while the WAL was
	// closing under it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("rbc-server: %v", err)
	}
	log.Printf("serving on %s", ln.Addr())
	if err := server.GracefulServe(ln, srv, srv.Close, sigc, *drainTimeout); err != nil {
		log.Fatalf("rbc-server: %v", err)
	}
	log.Printf("shutdown complete")
}
