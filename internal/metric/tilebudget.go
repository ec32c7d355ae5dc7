package metric

import (
	"os"
	"strconv"
	"sync/atomic"
)

// Tile shapes.
//
// The tiled search loops size their tiles against a per-tile footprint
// budget (in float32 elements): larger budgets amortize loop overhead and
// widen the point tile, smaller budgets keep the working set inside
// faster cache levels. The budget is one process-wide value, resolved at
// start-up: defaultTileBudget, unless RBC_TILE_BUDGET holds a valid
// integer (clamped to [minTileBudget, maxTileBudget]). SetTileBudget
// overrides it for tests and harnesses; TileBudget reports the active
// value and where it came from so bench artifacts can record the shape
// that produced them.
//
// Changing the tile shape can never change results: every kernel grade is
// tile-shape invariant by construction (see the shape-invariance tests in
// chunked_test.go and blocked_test.go), and search statistics count
// admissible pairs, not tiles.

const (
	// defaultTileBudget is 16K float32 elements = 64 KiB of point rows —
	// the value every bench gate pins.
	defaultTileBudget = 16384

	// minTileBudget / maxTileBudget clamp overrides to shapes the tiled
	// loops handle sensibly.
	minTileBudget = 1024
	maxTileBudget = 1 << 18

	// tileBudgetEnv names the environment variable that sets the tile
	// budget at process start.
	tileBudgetEnv = "RBC_TILE_BUDGET"
)

type tileBudgetSetting struct {
	budget int
	source string // "default" | "env" | "env-invalid" | "param"
}

// tileBudget is read on every TileShape call — once per list per tile on
// the phase-2 scan path — so it is a lock-free load.
var tileBudget atomic.Pointer[tileBudgetSetting]

func init() {
	set := tileBudgetSetting{defaultTileBudget, "default"}
	if v, ok := os.LookupEnv(tileBudgetEnv); ok {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			set = tileBudgetSetting{clampTileBudget(n), "env"}
		} else {
			set.source = "env-invalid"
		}
	}
	tileBudget.Store(&set)
}

// TileShape returns the query/point tile shape the tiled search loops use
// for dimension dim under the process-wide tile budget.
func TileShape(dim int) (tq, tp int) {
	return shapeForBudget(tileBudget.Load().budget, dim)
}

// TileBudget reports the per-tile budget and how it was chosen: "default",
// "env" (valid RBC_TILE_BUDGET), "env-invalid" (RBC_TILE_BUDGET set but
// unparsable — default used), or "param" (SetTileBudget). Bench tooling
// records this in its JSON artifact.
func TileBudget() (budget int, source string) {
	set := tileBudget.Load()
	return set.budget, set.source
}

// SetTileBudget sets the tile budget for the rest of the process (clamped
// to [minTileBudget, maxTileBudget]). Intended for tests and harness pins.
func SetTileBudget(budget int) {
	tileBudget.Store(&tileBudgetSetting{clampTileBudget(budget), "param"})
}

func clampTileBudget(b int) int {
	if b < minTileBudget {
		return minTileBudget
	}
	if b > maxTileBudget {
		return maxTileBudget
	}
	return b
}
