package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// scanFlagsAt is the offset of the flags byte in a MsgScan body, after
// Dim, K and Epoch.
const scanFlagsAt = 12

// FuzzDecodeScanRequest feeds arbitrary MsgScan bodies to the decoder.
// Every input must fail with ErrTruncated or decode to a request whose
// columns agree with its own counts and that re-encodes to the same body
// (flag bits no field uses aside). Decoding must never panic, and it
// may allocate at most a constant times the body's length, whatever
// counts the body claims: each query's segment list decodes to a 24-byte
// slice header from its 4-byte count, hence the factor 8. The seed corpus
// in testdata/fuzz/FuzzDecodeScanRequest holds routed, broadcast,
// version-2 windowed and empty requests, and bodies that truncate,
// over-claim counts or set unknown flags.
func FuzzDecodeScanRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		// TotalAlloc is process-wide, and under -fuzz the engine's own
		// goroutines allocate a few KiB now and then. Decoding is
		// deterministic, so a body fails only if three measurements all
		// exceed the limit.
		limit := uint64(8*len(body) + 1024)
		grew := decodeAllocBytes(body)
		for try := 1; try < 3 && grew > limit; try++ {
			grew = min(grew, decodeAllocBytes(body))
		}
		if grew > limit {
			t.Fatalf("decoding a %d-byte body allocated %d bytes (limit %d)", len(body), grew, limit)
		}
		r, err := DecodeScanRequest(body)
		if err != nil {
			if !errors.Is(err, ErrTruncated) || r != nil {
				t.Fatalf("decode returned (%v, %v), want (nil, ErrTruncated)", r, err)
			}
			return
		}
		total := 0
		for _, segs := range r.Segs {
			total += len(segs)
		}
		switch {
		case len(r.Qs) != len(r.Segs)*r.Dim:
			t.Fatalf("%d query floats for %d queries of dim %d", len(r.Qs), len(r.Segs), r.Dim)
		case r.Bounds != nil && len(r.Bounds) != len(r.Segs):
			t.Fatalf("%d bounds for %d queries", len(r.Bounds), len(r.Segs))
		case r.Wins != nil && len(r.Wins) != 2*total:
			t.Fatalf("%d window floats for %d entries", len(r.Wins), total)
		case r.Dists != nil && len(r.Dists) != total:
			t.Fatalf("%d representative distances for %d entries", len(r.Dists), total)
		}
		want := append([]byte(nil), body...)
		want[scanFlagsAt] &= flagIncludeReps | flagBounds | flagWins | flagDists
		if got := EncodeScanRequest(r)[frameHead+2:]; !bytes.Equal(got, want) {
			t.Fatalf("re-encoded body differs:\n got %x\nwant %x", got, want)
		}
	})
}

// decodeAllocBytes returns the bytes the process allocated while
// DecodeScanRequest parsed body.
func decodeAllocBytes(body []byte) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	DecodeScanRequest(body)
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}
