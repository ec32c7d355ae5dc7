package distributed

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
)

// TestQueryAfterCloseReturnsError is the query-after-Close half of the
// lifecycle bugfix: before the fix this was a send-on-closed-channel
// panic; now every entry point returns ErrClusterClosed.
func TestQueryAfterCloseReturnsError(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	db := clustered(rng, 300, 4, 4)
	cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: 11}, 3, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close() // idempotent

	q := db.Row(0)
	if _, _, err := cl.KNN(q, 3); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("KNN: %v", err)
	}
	if _, _, err := cl.KNNBatch(db.Subset([]int{0, 1}), 2); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("KNNBatch: %v", err)
	}
	if _, _, err := cl.QueryBroadcast(q); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("QueryBroadcast: %v", err)
	}
	if st := cl.NetStats(); st != nil {
		t.Fatalf("NetStats after Close: %v", st)
	}
}

// TestCloseQueryRaceStress is the concurrent half: many goroutines
// hammer every entry point while Close lands in the middle: each call
// either completes normally or returns ErrClusterClosed, and Close waits
// for in-flight fan-out to drain. Run under -race in CI.
func TestCloseQueryRaceStress(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		db := clustered(rng, 400, 4, 4)
		queries := clustered(rng, 16, 4, 4)
		cl, err := Build(db, metric.Euclidean{}, core.ExactParams{Seed: int64(trial)}, 4, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					var err error
					switch g % 3 {
					case 0:
						_, _, err = cl.KNNBatch(queries, 3)
					case 1:
						_, _, err = cl.KNN(queries.Row(i%queries.N()), 2)
					default:
						_, _, err = cl.QueryBroadcast(queries.Row(i % queries.N()))
					}
					if err != nil {
						if !errors.Is(err, ErrClusterClosed) {
							t.Errorf("goroutine %d: unexpected error %v", g, err)
						}
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cl.Close()
		}()
		close(start)
		wg.Wait()
	}
}
