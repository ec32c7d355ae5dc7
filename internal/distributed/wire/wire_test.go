package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metric"
	"repro/internal/par"
)

func TestFrameRoundTrip(t *testing.T) {
	f := NewFrame(MsgPing)
	f = appendU32(f, 0xdeadbeef)
	f = Finish(f)
	mt, body, err := ReadFrame(bytes.NewReader(f), MaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if mt != MsgPing || len(body) != 4 {
		t.Fatalf("mt=%d len=%d", mt, len(body))
	}
}

func TestFrameCorruptCRC(t *testing.T) {
	f := Finish(appendU32(NewFrame(MsgScan), 7))
	// Flip one payload byte in every position; each must be detected.
	for i := frameHead; i < len(f); i++ {
		g := append([]byte(nil), f...)
		g[i] ^= 0x40
		if _, _, err := ReadFrame(bytes.NewReader(g), MaxFrameBytes); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadVersion) {
			t.Fatalf("flip at %d: err=%v, want corruption detected", i, err)
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	f := Finish(appendU32(NewFrame(MsgScan), 7))
	for cut := 1; cut < len(f); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(f[:cut]), MaxFrameBytes)
		if err == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
		if cut > frameHead && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err=%v, want unexpected EOF", cut, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	f := Finish(appendF64s(NewFrame(MsgScan), make([]float64, 100)))
	if _, _, err := ReadFrame(bytes.NewReader(f), 64); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err=%v, want ErrTooLarge", err)
	}
}

func TestFrameBadVersion(t *testing.T) {
	f := NewFrame(MsgPing)
	f[frameHead] = 99 // version byte
	f = Finish(f)
	if _, _, err := ReadFrame(bytes.NewReader(f), MaxFrameBytes); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err=%v, want ErrBadVersion", err)
	}
}

func TestScanRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(9)
		nq := rng.Intn(5)
		req := &ScanRequest{Dim: dim, K: 1 + rng.Intn(10), Epoch: rng.Uint32(), IncludeReps: rng.Intn(2) == 0}
		req.Qs = make([]float32, nq*dim)
		for i := range req.Qs {
			req.Qs[i] = rng.Float32()*2 - 1
		}
		req.Segs = make([][]int, nq)
		total := 0
		for i := range req.Segs {
			ns := rng.Intn(4)
			req.Segs[i] = make([]int, ns)
			for j := range req.Segs[i] {
				req.Segs[i][j] = rng.Intn(100)
			}
			total += ns
		}
		if rng.Intn(2) == 0 {
			req.Bounds = make([]float64, nq)
			for i := range req.Bounds {
				req.Bounds[i] = rng.NormFloat64()
			}
			if nq > 0 && rng.Intn(3) == 0 {
				req.Bounds[0] = math.Inf(1)
			}
		}
		if rng.Intn(2) == 0 {
			req.Wins = make([]float64, 2*total)
			for i := range req.Wins {
				req.Wins[i] = rng.NormFloat64()
			}
		}
		if rng.Intn(2) == 0 {
			req.Dists = make([]float64, total)
			for i := range req.Dists {
				req.Dists[i] = rng.ExpFloat64()
			}
			if total > 0 && rng.Intn(3) == 0 {
				req.Dists[0] = math.Inf(1)
			}
		}
		mt, body, err := ReadFrame(bytes.NewReader(EncodeScanRequest(req)), MaxFrameBytes)
		if err != nil || mt != MsgScan {
			t.Fatalf("trial %d: mt=%d err=%v", trial, mt, err)
		}
		got, err := DecodeScanRequest(body)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Dim != req.Dim || got.K != req.K || got.Epoch != req.Epoch || got.IncludeReps != req.IncludeReps {
			t.Fatalf("trial %d: header mismatch %+v vs %+v", trial, got, req)
		}
		assertF32s(t, got.Qs, req.Qs)
		if len(got.Segs) != len(req.Segs) {
			t.Fatalf("trial %d: %d segs lists", trial, len(got.Segs))
		}
		for i := range req.Segs {
			if len(got.Segs[i]) != len(req.Segs[i]) {
				t.Fatalf("trial %d query %d: seg count", trial, i)
			}
			for j := range req.Segs[i] {
				if got.Segs[i][j] != req.Segs[i][j] {
					t.Fatalf("trial %d: seg mismatch", trial)
				}
			}
		}
		assertF64s(t, got.Bounds, req.Bounds)
		assertF64s(t, got.Wins, req.Wins)
		assertF64s(t, got.Dists, req.Dists)
		if (got.Dists == nil) != (req.Dists == nil) {
			t.Fatalf("trial %d: Dists presence %v, sent %v", trial, got.Dists != nil, req.Dists != nil)
		}
	}
}

func TestScanReplyRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rep := &ScanReply{Shard: 3, Evals: 12345678901234, EmptyWins: 7}
	rep.KNN = make([][]par.Neighbor, 4)
	for i := range rep.KNN {
		for j := 0; j < rng.Intn(6); j++ {
			rep.KNN[i] = append(rep.KNN[i], par.Neighbor{ID: rng.Intn(1 << 30), Dist: rng.NormFloat64() * 1e3})
		}
	}
	rep.KNN[1] = append(rep.KNN[1], par.Neighbor{ID: -1, Dist: math.Inf(1)})
	mt, body, err := ReadFrame(bytes.NewReader(EncodeScanReply(rep)), MaxFrameBytes)
	if err != nil || mt != MsgScanReply {
		t.Fatalf("mt=%d err=%v", mt, err)
	}
	got, err := DecodeScanReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != rep.Shard || got.Evals != rep.Evals || got.EmptyWins != rep.EmptyWins {
		t.Fatalf("counters: %+v vs %+v", got, rep)
	}
	for i := range rep.KNN {
		if len(got.KNN[i]) != len(rep.KNN[i]) {
			t.Fatalf("query %d: %d neighbors", i, len(got.KNN[i]))
		}
		for j := range rep.KNN[i] {
			// Struct equality compares float64s bit-for-bit through ==
			// except NaN; ordering distances are never NaN.
			if got.KNN[i][j] != rep.KNN[i][j] {
				t.Fatalf("query %d pos %d: %+v vs %+v", i, j, got.KNN[i][j], rep.KNN[i][j])
			}
		}
	}
}

// TestScanFramesPresized: the scan encoders size their frame exactly up
// front (no append growth on the fan-out hot path).
func TestScanFramesPresized(t *testing.T) {
	// One shape per optional column: broadcast (neither), version-2
	// windows (Wins, two per entry) and routed (Dists, one per entry).
	for _, shape := range []struct {
		name        string
		wins, dists []float64
	}{
		{"broadcast", nil, nil},
		{"wins", make([]float64, 8), nil},
		{"dists", nil, make([]float64, 4)},
	} {
		req := &ScanRequest{Dim: 3, K: 2, Qs: make([]float32, 6), Segs: [][]int{{1, 4, 7}, {2}}, Bounds: []float64{1, 2}, Wins: shape.wins, Dists: shape.dists}
		if f := EncodeScanRequest(req); len(f) != cap(f) {
			t.Fatalf("%s: scan request frame len %d, cap %d", shape.name, len(f), cap(f))
		}
	}
	rep := &ScanReply{Shard: 1, Evals: 9, KNN: [][]par.Neighbor{{{ID: 3, Dist: 1}, {ID: 4, Dist: 2}}, nil}}
	if f := EncodeScanReply(rep); len(f) != cap(f) {
		t.Fatalf("scan reply frame len %d, cap %d", len(f), cap(f))
	}
}

func TestShardStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, windowed := range []bool{false, true} {
		st := &ShardState{ID: 2, Dim: 3, Epoch: rng.Uint32(), Metric: MetricSpec{Kind: MetricEuclidean}}
		st.RepIDs = []int32{5, 9, 11}
		st.Offsets = []int{0, 4, 4, 10}
		n := 10
		for i := 0; i < n; i++ {
			st.IDs = append(st.IDs, int32(rng.Intn(1000)))
			st.IsRep = append(st.IsRep, rng.Intn(4) == 0)
			if windowed {
				st.SegDists = append(st.SegDists, rng.Float64()*10)
			}
		}
		st.Gather = make([]float32, n*st.Dim)
		for i := range st.Gather {
			st.Gather[i] = rng.Float32()
		}
		mt, body, err := ReadFrame(bytes.NewReader(EncodeShardState(st)), MaxFrameBytes)
		if err != nil || mt != MsgLoad {
			t.Fatalf("mt=%d err=%v", mt, err)
		}
		got, err := DecodeShardState(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != st.ID || got.Dim != st.Dim || got.Epoch != st.Epoch || got.Metric != st.Metric {
			t.Fatalf("header: %+v vs %+v", got, st)
		}
		for i := range st.IDs {
			if got.IDs[i] != st.IDs[i] || got.IsRep[i] != st.IsRep[i] {
				t.Fatalf("pos %d mismatch", i)
			}
		}
		assertF32s(t, got.Gather, st.Gather)
		assertF64s(t, got.SegDists, st.SegDists)
		if windowed && got.SegDists == nil {
			t.Fatal("windowed state lost its segDists")
		}
	}
}

func TestShardStateRejectsMalformedOffsets(t *testing.T) {
	base := &ShardState{
		ID: 0, Dim: 2, Metric: MetricSpec{Kind: MetricEuclidean},
		RepIDs: []int32{1}, Offsets: []int{0, 2},
		IDs: []int32{3, 4}, IsRep: []bool{false, false},
		Gather: []float32{1, 2, 3, 4},
	}
	bad := []ShardState{*base, *base, *base}
	bad[0].Offsets = []int{0, 1} // last offset != n
	bad[1].Offsets = []int{1, 2} // first offset != 0
	bad[2].Offsets = []int{0, 2, 1}
	for i := range bad {
		_, body, err := ReadFrame(bytes.NewReader(EncodeShardState(&bad[i])), MaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeShardState(body); err == nil {
			t.Fatalf("case %d: malformed offsets accepted", i)
		}
	}
}

// Decoders must reject, never panic on, arbitrary CRC-valid garbage.
func TestDecodersRobustToRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		body := make([]byte, rng.Intn(64))
		rng.Read(body)
		_, _ = DecodeScanRequest(body)
		_, _ = DecodeScanReply(body)
		_, _ = DecodeShardState(body)
		_ = DecodeErr(body)
	}
}

func TestErrRoundTrip(t *testing.T) {
	mt, body, err := ReadFrame(bytes.NewReader(EncodeErr("no shard loaded")), MaxFrameBytes)
	if err != nil || mt != MsgErr {
		t.Fatalf("mt=%d err=%v", mt, err)
	}
	rerr := DecodeErr(body)
	var re *RemoteError
	if !errors.As(rerr, &re) || re.Msg != "no shard loaded" {
		t.Fatalf("got %v", rerr)
	}
}

func TestMetricSpecRoundTrip(t *testing.T) {
	for _, m := range []metric.Metric[[]float32]{
		metric.Euclidean{}, metric.NewMinkowski(1.5), metric.Angular{},
	} {
		spec, err := SpecFor(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := spec.Metric()
		if err != nil {
			t.Fatal(err)
		}
		if back.Name() != m.Name() {
			t.Fatalf("round trip: %s vs %s", back.Name(), m.Name())
		}
	}
	if _, err := SpecFor(nil); err == nil {
		t.Fatal("nil metric must not encode")
	}
}

func assertF32s(t *testing.T, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d float32s, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("pos %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func assertF64s(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d float64s, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("pos %d: %v vs %v", i, got[i], want[i])
		}
	}
}
