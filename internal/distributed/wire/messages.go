package wire

import (
	"fmt"

	"repro/internal/metric"
	"repro/internal/par"
)

// MetricSpec names a metric over the wire. Only stateless (or
// scalar-parameterized) metrics can cross process boundaries; the
// coordinator refuses to distribute a cluster whose metric has no spec.
type MetricSpec struct {
	Kind uint8
	P    float64 // Minkowski order; unused otherwise
}

// Metric kinds.
const (
	MetricEuclidean = 1
	MetricMinkowski = 2
	MetricAngular   = 3
)

// SpecFor returns the wire spec for m, or an error if m is not a
// wire-encodable metric type.
func SpecFor(m metric.Metric[[]float32]) (MetricSpec, error) {
	switch t := m.(type) {
	case metric.Euclidean:
		return MetricSpec{Kind: MetricEuclidean}, nil
	case metric.Minkowski:
		return MetricSpec{Kind: MetricMinkowski, P: t.P}, nil
	case metric.Angular:
		return MetricSpec{Kind: MetricAngular}, nil
	}
	return MetricSpec{}, fmt.Errorf("wire: metric %T cannot be encoded; networked shards support Euclidean, Minkowski and Angular", m)
}

// Metric reconstructs the metric a spec names.
func (s MetricSpec) Metric() (metric.Metric[[]float32], error) {
	switch s.Kind {
	case MetricEuclidean:
		return metric.Euclidean{}, nil
	case MetricMinkowski:
		if !(s.P >= 1) {
			return nil, fmt.Errorf("wire: minkowski p=%v is not a metric", s.P)
		}
		return metric.NewMinkowski(s.P), nil
	case MetricAngular:
		return metric.Angular{}, nil
	}
	return nil, fmt.Errorf("wire: unknown metric kind %d", s.Kind)
}

// ScanRequest is one batched shard scan: Qs holds len(Segs) packed
// query vectors of dimension Dim, Segs the owned-representative
// segments each query must scan, Bounds (optional) the per-query
// pruning bound in ordering space, and Dists (optional) the
// representative distance ρ(q,r) of every (query, segment) entry, flat
// and aligned with the concatenation of Segs — the exact shape
// internal/distributed's shardRequest carries in process. Epoch names
// the shard-state generation the request was routed under; a shard
// loaded with a different epoch rejects the scan with MsgErr instead of
// answering against the wrong segment layout (see doc.go, "Replica
// epochs").
//
// Wins, the version-2 [dLo, dHi] window pairs, still encodes and
// decodes so old message shapes stay measurable, but no coordinator
// sends it and a shard refuses a request that carries it.
type ScanRequest struct {
	Dim         int
	K           int
	Epoch       uint32
	IncludeReps bool
	Qs          []float32
	Segs        [][]int
	Bounds      []float64 // nil or len(Segs)
	Wins        []float64 // nil or 2×(total segment entries)
	Dists       []float64 // nil or total segment entries
}

const (
	flagIncludeReps = 1 << 0
	flagBounds      = 1 << 1
	flagWins        = 1 << 2
	flagDists       = 1 << 3
)

// EncodeScanRequest builds a wire-ready MsgScan frame.
func EncodeScanRequest(r *ScanRequest) []byte {
	var flags uint8
	if r.IncludeReps {
		flags |= flagIncludeReps
	}
	if r.Bounds != nil {
		flags |= flagBounds
	}
	if r.Wins != nil {
		flags |= flagWins
	}
	if r.Dists != nil {
		flags |= flagDists
	}
	size := frameHead + 2 + 17 + 4*len(r.Qs) + 4*len(r.Segs) + 8*len(r.Bounds) + 8*len(r.Wins) + 8*len(r.Dists)
	for _, segs := range r.Segs {
		size += 4 * len(segs)
	}
	f := make([]byte, frameHead, size)
	f = append(f, Version, MsgScan)
	f = appendU32(f, uint32(r.Dim))
	f = appendU32(f, uint32(r.K))
	f = appendU32(f, r.Epoch)
	f = appendU8(f, flags)
	f = appendU32(f, uint32(len(r.Segs)))
	f = appendF32s(f, r.Qs)
	for _, segs := range r.Segs {
		f = appendU32(f, uint32(len(segs)))
		for _, s := range segs {
			f = appendU32(f, uint32(s))
		}
	}
	if r.Bounds != nil {
		f = appendF64s(f, r.Bounds)
	}
	if r.Wins != nil {
		f = appendF64s(f, r.Wins)
	}
	if r.Dists != nil {
		f = appendF64s(f, r.Dists)
	}
	return Finish(f)
}

// DecodeScanRequest parses a MsgScan body. Every count is checked against
// the bytes left before anything is allocated for it: each query needs at
// least its 4-byte segment count, so a body of n bytes decodes to at most
// a small constant times n bytes of request, whatever its counts claim.
func DecodeScanRequest(body []byte) (*ScanRequest, error) {
	d := &dec{b: body}
	r := &ScanRequest{
		Dim:   int(d.u32()),
		K:     int(d.u32()),
		Epoch: d.u32(),
	}
	flags := d.u8()
	r.IncludeReps = flags&flagIncludeReps != 0
	nq := d.n(4)
	if d.err == nil && r.Dim > 0 && nq > len(d.b)/(4*r.Dim)+1 {
		return nil, ErrTruncated
	}
	r.Qs = d.f32s(nq * r.Dim)
	r.Segs = make([][]int, nq)
	total := 0
	for i := range r.Segs {
		ns := d.n(4)
		segs := make([]int, ns)
		for j := range segs {
			segs[j] = int(d.u32())
		}
		r.Segs[i] = segs
		total += ns
	}
	if flags&flagBounds != 0 {
		r.Bounds = d.f64s(nq)
	}
	if flags&flagWins != 0 {
		r.Wins = d.f64s(2 * total)
	}
	if flags&flagDists != 0 {
		r.Dists = d.f64s(total)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ScanReply carries one shard's answer: per-query candidate sets in
// ORDERING space (float64 bits preserved verbatim) plus the work
// counters the coordinator folds into QueryMetrics.
type ScanReply struct {
	Shard     int
	Evals     int64
	EmptyWins int64
	KNN       [][]par.Neighbor
}

// EncodeScanReply builds a wire-ready MsgScanReply frame.
func EncodeScanReply(r *ScanReply) []byte {
	size := frameHead + 2 + 24
	for _, nbs := range r.KNN {
		size += 4 + 16*len(nbs)
	}
	f := make([]byte, frameHead, size)
	f = append(f, Version, MsgScanReply)
	f = appendU32(f, uint32(r.Shard))
	f = appendU64(f, uint64(r.Evals))
	f = appendU64(f, uint64(r.EmptyWins))
	f = appendU32(f, uint32(len(r.KNN)))
	for _, nbs := range r.KNN {
		f = appendU32(f, uint32(len(nbs)))
		for _, nb := range nbs {
			f = appendU64(f, uint64(int64(nb.ID)))
			f = appendF64(f, nb.Dist)
		}
	}
	return Finish(f)
}

// DecodeScanReply parses a MsgScanReply body.
func DecodeScanReply(body []byte) (*ScanReply, error) {
	d := &dec{b: body}
	r := &ScanReply{
		Shard:     int(d.u32()),
		Evals:     int64(d.u64()),
		EmptyWins: int64(d.u64()),
	}
	nq := d.n(4)
	r.KNN = make([][]par.Neighbor, nq)
	for i := range r.KNN {
		n := d.n(16)
		nbs := make([]par.Neighbor, n)
		for j := range nbs {
			nbs[j].ID = int(int64(d.u64()))
			nbs[j].Dist = d.f64()
		}
		r.KNN[i] = nbs
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ShardState is the payload that hands a shard its segments: the
// gathered member layout internal/distributed builds in process,
// shipped verbatim so a remote shard scans byte-identical data. Epoch
// is the state's generation; the shard echoes it back as the only
// epoch it will serve scans for. Re-pushing a ShardState (replica
// repair, rebalance) is the same message again.
type ShardState struct {
	ID       int
	Dim      int
	Epoch    uint32
	Metric   MetricSpec
	RepIDs   []int32
	Offsets  []int
	IDs      []int32
	IsRep    []bool
	Gather   []float32
	SegDists []float64 // sorted segment keys; a shard without them refuses windowed scans
}

// EncodeShardState builds a wire-ready MsgLoad frame.
func EncodeShardState(s *ShardState) []byte {
	f := make([]byte, frameHead, frameHead+2+64+4*len(s.IDs)+len(s.IsRep)+4*len(s.Gather)+8*len(s.SegDists))
	f = append(f, Version, MsgLoad)
	f = appendU32(f, uint32(s.ID))
	f = appendU32(f, uint32(s.Dim))
	f = appendU32(f, s.Epoch)
	f = appendU8(f, s.Metric.Kind)
	f = appendF64(f, s.Metric.P)
	f = appendU32(f, uint32(len(s.RepIDs)))
	f = appendI32s(f, s.RepIDs)
	f = appendU32(f, uint32(len(s.Offsets)))
	for _, o := range s.Offsets {
		f = appendU32(f, uint32(o))
	}
	f = appendU32(f, uint32(len(s.IDs)))
	f = appendI32s(f, s.IDs)
	for _, b := range s.IsRep {
		if b {
			f = append(f, 1)
		} else {
			f = append(f, 0)
		}
	}
	f = appendF32s(f, s.Gather)
	if s.SegDists != nil {
		f = appendU8(f, 1)
		f = appendF64s(f, s.SegDists)
	} else {
		f = appendU8(f, 0)
	}
	return Finish(f)
}

// DecodeShardState parses a MsgLoad body and validates its structural
// invariants (offset monotonicity, aligned column lengths), so a
// corrupt-but-CRC-valid load cannot seed an inconsistent shard.
func DecodeShardState(body []byte) (*ShardState, error) {
	d := &dec{b: body}
	s := &ShardState{
		ID:    int(d.u32()),
		Dim:   int(d.u32()),
		Epoch: d.u32(),
	}
	s.Metric.Kind = d.u8()
	s.Metric.P = d.f64()
	s.RepIDs = d.i32s(d.n(4))
	noff := d.n(4)
	s.Offsets = make([]int, noff)
	for i := range s.Offsets {
		s.Offsets[i] = int(d.u32())
	}
	n := d.n(4)
	s.IDs = d.i32s(n)
	rep := d.take(n)
	s.IsRep = make([]bool, n)
	for i := range s.IsRep {
		s.IsRep[i] = rep != nil && rep[i] != 0
	}
	if d.err == nil && s.Dim > 0 && n > len(d.b)/(4*s.Dim)+1 {
		return nil, ErrTruncated
	}
	s.Gather = d.f32s(n * s.Dim)
	if d.u8() != 0 {
		s.SegDists = d.f64s(n)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if s.Dim <= 0 {
		return nil, fmt.Errorf("wire: shard state dim %d", s.Dim)
	}
	if noff != len(s.RepIDs)+1 || noff == 0 || s.Offsets[0] != 0 || s.Offsets[noff-1] != n {
		return nil, fmt.Errorf("wire: shard state offsets malformed")
	}
	for i := 1; i < noff; i++ {
		if s.Offsets[i] < s.Offsets[i-1] {
			return nil, fmt.Errorf("wire: shard state offsets not monotone")
		}
	}
	return s, nil
}
