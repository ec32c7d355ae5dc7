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
		checkDecodeAlloc(t, body, func(b []byte) { DecodeScanRequest(b) })
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

// FuzzDecodeScanReply feeds arbitrary MsgScanReply bodies — what a
// coordinator reads from a shard — to the decoder, under the same
// contract as FuzzDecodeScanRequest: ErrTruncated or a reply that
// re-encodes to the same body, no panic, allocation bounded by the body.
// Each query's neighbour list costs a 24-byte slice header per 4-byte
// count. The seed corpus in testdata/fuzz/FuzzDecodeScanReply holds a
// well-formed reply, an empty body, a truncated one, one with a trailing
// byte, and over-claimed query and neighbour counts.
func FuzzDecodeScanReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAlloc(t, body, func(b []byte) { DecodeScanReply(b) })
		r, err := DecodeScanReply(body)
		if err != nil {
			if !errors.Is(err, ErrTruncated) || r != nil {
				t.Fatalf("decode returned (%v, %v), want (nil, ErrTruncated)", r, err)
			}
			return
		}
		if got := EncodeScanReply(r)[frameHead+2:]; !bytes.Equal(got, body) {
			t.Fatalf("re-encoded body differs:\n got %x\nwant %x", got, body)
		}
	})
}

// shardStateRepsAt is the offset of the representative count in a
// MsgLoad body, after ID, Dim, Epoch and the metric's kind byte and P.
const shardStateRepsAt = 21

// FuzzDecodeShardState feeds arbitrary MsgLoad bodies — what a shard
// reads from a coordinator — to the decoder. Every input must fail with
// an error or decode to a state that satisfies the offsets invariants
// (one more offset than representatives, starting at 0, ending at the
// member count, never decreasing), whose columns agree with the member
// count, and that re-encodes to the same body. The decoder reads any
// nonzero IsRep byte or SegDists flag as set, and the encoder writes 1,
// so those bytes are compared as booleans. Decoding must never panic,
// and its allocation is bounded as in FuzzDecodeScanRequest. The seed
// corpus in testdata/fuzz/FuzzDecodeShardState holds well-formed states
// with and without SegDists, an empty body, a truncated one, one with a
// trailing byte, over-claimed representative, offset and member counts,
// dim 0, non-monotone offsets and the SegDists flag with no data.
func FuzzDecodeShardState(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAlloc(t, body, func(b []byte) { DecodeShardState(b) })
		s, err := DecodeShardState(body)
		if err != nil {
			if s != nil {
				t.Fatalf("decode returned (%v, %v), want (nil, error)", s, err)
			}
			return
		}
		n, nr := len(s.IDs), len(s.RepIDs)
		switch {
		case s.Dim <= 0:
			t.Fatalf("dim %d accepted", s.Dim)
		case len(s.Offsets) != nr+1 || s.Offsets[0] != 0 || s.Offsets[nr] != n:
			t.Fatalf("offsets %v for %d representatives and %d members", s.Offsets, nr, n)
		case len(s.IsRep) != n || len(s.Gather) != n*s.Dim:
			t.Fatalf("%d IsRep and %d gathered floats for %d members of dim %d", len(s.IsRep), len(s.Gather), n, s.Dim)
		case s.SegDists != nil && len(s.SegDists) != n:
			t.Fatalf("%d segment distances for %d members", len(s.SegDists), n)
		}
		for i := 1; i <= nr; i++ {
			if s.Offsets[i] < s.Offsets[i-1] {
				t.Fatalf("offsets %v not monotone", s.Offsets)
			}
		}
		want := append([]byte(nil), body...)
		isRepAt := shardStateRepsAt + 4 + 4*nr + 4 + 4*len(s.Offsets) + 4 + 4*n
		flagAt := isRepAt + n + 4*len(s.Gather)
		for i := isRepAt; i < isRepAt+n; i++ {
			want[i] = min(want[i], 1)
		}
		want[flagAt] = min(want[flagAt], 1)
		if got := EncodeShardState(s)[frameHead+2:]; !bytes.Equal(got, want) {
			t.Fatalf("re-encoded body differs:\n got %x\nwant %x", got, want)
		}
	})
}

// checkDecodeAlloc fails t if decoding body allocates more than
// 8×len(body) + 1 KiB. TotalAlloc is process-wide, and under -fuzz the
// engine's own goroutines allocate a few KiB now and then. Decoding is
// deterministic, so a body fails only if three measurements all exceed
// the limit.
func checkDecodeAlloc(t *testing.T, body []byte, decode func([]byte)) {
	t.Helper()
	limit := uint64(8*len(body) + 1024)
	grew := decodeAllocBytes(body, decode)
	for try := 1; try < 3 && grew > limit; try++ {
		grew = min(grew, decodeAllocBytes(body, decode))
	}
	if grew > limit {
		t.Fatalf("decoding a %d-byte body allocated %d bytes (limit %d)", len(body), grew, limit)
	}
}

// decodeAllocBytes returns the bytes the process allocated while decode
// parsed body.
func decodeAllocBytes(body []byte, decode func([]byte)) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	decode(body)
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}
