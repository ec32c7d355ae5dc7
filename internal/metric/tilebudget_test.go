package metric

import (
	"math/rand"
	"testing"
)

// setBudgetForTest pins the budget and restores the previous setting at
// cleanup, so process-global tile state cannot leak between tests.
func setBudgetForTest(t *testing.T, budget int) {
	t.Helper()
	prev := tileBudget.Load()
	SetTileBudget(budget)
	t.Cleanup(func() { tileBudget.Store(prev) })
}

// TestShapeForBudgetDefaultMatchesTileShape: at the default budget
// TileShape must keep the historical fixed shapes exactly — they are the
// compatibility surface other packages' baselines were tuned against.
func TestShapeForBudgetDefaultMatchesTileShape(t *testing.T) {
	setBudgetForTest(t, defaultTileBudget)
	for dim := 1; dim <= 8192; dim = dim*2 + 1 {
		tq, tp := TileShape(dim)
		btq, btp := shapeForBudget(defaultTileBudget, dim)
		if tq != btq || tp != btp {
			t.Fatalf("dim=%d: TileShape %dx%d, shapeForBudget(default) %dx%d", dim, tq, tp, btq, btp)
		}
	}
	// Spot-check the historical values so a silent change to
	// shapeForBudget cannot take TileShape with it.
	for _, c := range []struct{ dim, tq, tp int }{
		{64, 32, 256}, {256, 32, 64}, {784, 16, 20}, {4099, 4, 16},
	} {
		tq, tp := TileShape(c.dim)
		if tq != c.tq || tp != c.tp {
			t.Fatalf("dim=%d: TileShape %dx%d, want historical %dx%d", c.dim, tq, tp, c.tq, c.tp)
		}
	}
}

// TestTileBudgetClamp: overrides are clamped into the range the tiled
// loops handle.
func TestTileBudgetClamp(t *testing.T) {
	if got := clampTileBudget(1); got != minTileBudget {
		t.Fatalf("clamp(1) = %d, want %d", got, minTileBudget)
	}
	if got := clampTileBudget(1 << 30); got != maxTileBudget {
		t.Fatalf("clamp(1<<30) = %d, want %d", got, maxTileBudget)
	}
	if got := clampTileBudget(defaultTileBudget); got != defaultTileBudget {
		t.Fatalf("clamp(default) = %d, want %d", got, defaultTileBudget)
	}
}

// TestSetTileBudgetPins: SetTileBudget overrides the budget and TileShape
// follows it.
func TestSetTileBudgetPins(t *testing.T) {
	setBudgetForTest(t, 32768)
	b, src := TileBudget()
	if b != 32768 || src != "param" {
		t.Fatalf("TileBudget = %d/%q, want 32768/param", b, src)
	}
	tq, tp := TileShape(64)
	wtq, wtp := shapeForBudget(32768, 64)
	if tq != wtq || tp != wtp {
		t.Fatalf("TileShape(64) = %dx%d, want %dx%d", tq, tp, wtq, wtp)
	}
}

// TestTileShapeInvarianceUnderBudgets: every kernel grade must produce
// bit-identical tiles regardless of the tile shape consumers sweep with —
// so a tile-budget override can never change answers. Emulates the
// consumer loop at powers of two around the default budget and compares against the one-shot
// full tile.
func TestTileShapeInvarianceUnderBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	const dim, nq, np = 33, 9, 41
	qflat := randFlat(rng, nq, dim)
	pflat := randFlat(rng, np, dim)
	for _, k := range []*Kernel{
		NewKernel(Euclidean{}),
		NewFastKernel(Euclidean{}),
		NewChunkedKernel(Euclidean{}),
	} {
		qn := k.Norms(qflat, dim, nil)
		pn := k.Norms(pflat, dim, nil)
		want := make([]float64, nq*np)
		k.Tile(qflat, qn, pflat, pn, dim, want, nil)
		for _, budget := range []int{8192, 16384, 32768, 65536} {
			tq, tp := shapeForBudget(budget, dim)
			got := make([]float64, nq*np)
			sub := make([]float64, tq*tp)
			for q0 := 0; q0 < nq; q0 += tq {
				q1 := min(q0+tq, nq)
				for p0 := 0; p0 < np; p0 += tp {
					p1 := min(p0+tp, np)
					bq, bp := q1-q0, p1-p0
					var sqn, spn []float64
					if qn != nil {
						sqn, spn = qn[q0:q1], pn[p0:p1]
					}
					k.Tile(qflat[q0*dim:q1*dim], sqn, pflat[p0*dim:p1*dim], spn, dim, sub[:bq*bp], nil)
					for i := 0; i < bq; i++ {
						copy(got[(q0+i)*np+p0:(q0+i)*np+p1], sub[i*bp:(i+1)*bp])
					}
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("budget=%d pair %d: tiled %v, full %v", budget, i, got[i], want[i])
				}
			}
		}
	}
}
