package metric

import "sync/atomic"

// Tile shapes.
//
// The tiled search loops size their tiles against a per-tile footprint
// budget (in float32 elements): larger budgets amortize loop overhead and
// widen the point tile, smaller budgets keep the working set inside
// faster cache levels. The budget is one process-wide value:
// defaultTileBudget, unless SetTileBudget (tests and harnesses) pins
// another, clamped to [minTileBudget, maxTileBudget]. TileBudget reports
// the active value and where it came from so bench artifacts can record
// the shape that produced them.
//
// Changing the tile shape can never change results: both kernel grades
// are tile-shape invariant by construction (see the shape-invariance tests
// in multi_test.go and tilebudget_test.go), and search statistics count
// admissible pairs, not tiles.

const (
	// defaultTileBudget is 16K float32 elements = 64 KiB of point rows —
	// the value every bench gate pins.
	defaultTileBudget = 16384

	// minTileBudget / maxTileBudget clamp overrides to shapes the tiled
	// loops handle sensibly.
	minTileBudget = 1024
	maxTileBudget = 1 << 18
)

type tileBudgetSetting struct {
	budget int
	source string // "default" | "param"
}

// tileBudget is read on every TileShape call — once per list per tile on
// the phase-2 scan path — so it is a lock-free load.
var tileBudget atomic.Pointer[tileBudgetSetting]

func init() {
	tileBudget.Store(&tileBudgetSetting{defaultTileBudget, "default"})
}

// TileShape returns the query/point tile shape the tiled search loops use
// for dimension dim under the process-wide tile budget.
func TileShape(dim int) (tq, tp int) {
	return shapeForBudget(tileBudget.Load().budget, dim)
}

// TileBudget reports the per-tile budget and how it was chosen: "default"
// or "param" (SetTileBudget). Bench tooling records this in its JSON
// artifact.
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
