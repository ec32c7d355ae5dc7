package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// bestPerInput is the timing estimator of every block-driven metric: sample
// i is a repetition of input (first+i) % distinct; each input keeps its
// fastest repetition, and the result is the median over inputs.
//
// It is not noise rule 3's plain median over rounds, and the reason is
// measured (README, noise rule 5). Disturbance on this box only ever adds
// time, in bursts that hit some repetitions of an input and in slow phases
// that hit a whole run. Against the bursts — eight batch-pruned runs beside
// a two-thread neighbour busy a third of the time — the median of rounds
// spread 14.3 % (Q3−Q1 over median of the eight) and the median over inputs
// of each input's median round 14.4 %; this estimator 3.5 % on the same
// samples, and 1.3 % against 10.5 % for the single queries. Against the
// slow phases nothing computed inside a run helps: ten runs across two of
// them spread 5.7 % (median of rounds) and 4.4 % (this). What it cannot see
// is a cost that lands on only some repetitions of an input, a collector
// cycle above all: the plain medians printed beside every run
// (bench.round_ms_p50, bench.latency_ms_p50) and runtime.* in the traced
// run are there for that.
func bestPerInput(ns []float64, first, distinct int) float64 {
	best := make([]float64, distinct)
	for i := range best {
		best[i] = math.Inf(1)
	}
	for i, v := range ns {
		in := (first + i) % distinct
		best[in] = min(best[in], v)
	}
	asked := best[:0]
	for _, b := range best {
		if !math.IsInf(b, 1) {
			asked = append(asked, b)
		}
	}
	return median(asked)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is
// what the driver computes its spreads from; -aa must agree with it to the
// digit. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once; children are clipped to the parent's interval), and the total time
// sibling spans overlapped one another. Within one tree the self times sum
// to the root's duration plus that overlap, so with serial children — every
// tree this benchmark records at GOMAXPROCS=1 except two shard exchanges in
// flight at once — they sum to the root exactly.
func selfTimes(spans []span) (self map[int]int64, siblingOverlap int64) {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[p.ID] = append(kids[p.ID], iv{lo, hi})
			}
		}
	}
	self = make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, summed int64
		end := int64(math.MinInt64)
		for _, c := range ivs {
			summed += c.hi - c.lo
			if c.lo > end {
				covered += c.hi - c.lo
				end = c.hi
			} else if c.hi > end {
				covered += c.hi - end
				end = c.hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
		siblingOverlap += summed - covered
	}
	return self, siblingOverlap
}
