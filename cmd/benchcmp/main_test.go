package main

import (
	"math"
	"testing"
)

const sample = `goos: linux
BenchmarkRowKernelExact/dim=64-8         	    2000	     67448 ns/op	3886.60 MB/s
BenchmarkRowKernelExact/dim=64-8         	    2000	     67252 ns/op	3897.91 MB/s
BenchmarkRowKernelChunked/dim=64-8       	    2000	     40714 ns/op	6438.73 MB/s
BenchmarkBFTiledChunked/dim=784-8        	      20	 123456789 ns/op	     100 dist-evals/s
PASS
ok  	repro/internal/metric	8.523s
`

func TestParseBenchKeepsMinimum(t *testing.T) {
	got := parseBench([]byte(sample))
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	if got["BenchmarkRowKernelExact/dim=64"] != 67252 {
		t.Fatalf("exact min = %v, want 67252 (minimum across -count runs)", got["BenchmarkRowKernelExact/dim=64"])
	}
	if got["BenchmarkRowKernelChunked/dim=64"] != 40714 {
		t.Fatalf("chunked = %v", got["BenchmarkRowKernelChunked/dim=64"])
	}
	if got["BenchmarkBFTiledChunked/dim=784"] != 123456789 {
		t.Fatalf("large value = %v", got["BenchmarkBFTiledChunked/dim=784"])
	}
}

func TestCompareGeomeanAndMissing(t *testing.T) {
	old := map[string]float64{"a": 100, "b": 100, "retired": 50}
	fresh := map[string]float64{"a": 110, "b": 121, "c": 5}
	geo, rows, missing, gone := compare(old, fresh)
	want := math.Sqrt(1.10 * 1.21)
	if math.Abs(geo-want) > 1e-12 {
		t.Fatalf("geomean %v, want %v", geo, want)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if len(missing) != 1 || missing[0] != "c" {
		t.Fatalf("missing: %v", missing)
	}
	// A baseline benchmark absent from the new run must be surfaced — it
	// silently shrinks the regression gate otherwise.
	if len(gone) != 1 || gone[0] != "retired" {
		t.Fatalf("gone: %v", gone)
	}
	// Worst regression first.
	if rows[0] == "" || rows[0][0] != 'b' {
		t.Fatalf("worst-first ordering: %q", rows[0])
	}
	if geo, _, _, _ := compare(map[string]float64{}, fresh); !math.IsNaN(geo) {
		t.Fatalf("no common benchmarks should yield NaN, got %v", geo)
	}
}
