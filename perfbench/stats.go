package main

import (
	"math"
	"sort"
)

// failedLatency stands in for the latency of a failed request: it sorts
// after every real latency, so a failure counts as beyond every percentile.
const failedLatency = math.MaxInt64

// minTail is how many samples must lie beyond a reported percentile. A tail
// percentile with fewer samples beyond it is a handful of outliers, not a
// percentile.
const minTail = 10

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// middleMean returns the mean of the middle half of xs: the mean after
// dropping a quarter of the values, (n+1)/4 of them, from each end. Like the
// median it ignores outliers; unlike it, it is not stuck on one value when
// xs are counts. 0 for no values. xs is not modified.
func middleMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := (len(s) + 1) / 4
	sum := 0.0
	for _, x := range s[cut : len(s)-cut] {
		sum += x
	}
	return sum / float64(len(s)-2*cut)
}

// maxPercentile is the highest percentile of n samples that still has at
// least minTail samples beyond it: 100·(1 − minTail/n), or 0 when n is too
// small for any tail.
func maxPercentile(n int) float64 {
	if n <= minTail {
		return 0
	}
	return 100 * (1 - float64(minTail)/float64(n))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be in ascending order; 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// latencies is a set of per-request latencies in nanoseconds, with failed
// requests recorded as failedLatency.
type latencies []int64

// summary is one latency distribution as a report states it: the median,
// the tail at the percentile actually reported, and the sample count.
type summary struct {
	P50, Tail float64 // nanoseconds
	TailPct   float64 // the percentile Tail is, after the minTail cap
	N         int
}

// summarize sorts ls in place and reports its median and its want-th
// percentile, capped by maxPercentile: the highest percentile the sample
// count can honestly name.
func (ls latencies) summarize(want float64) summary {
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	pct := math.Min(want, maxPercentile(len(ls)))
	if pct == 0 {
		// Too few samples for any tail: report the maximum, labelled as such.
		pct = 100
	}
	return summary{
		P50:     float64(percentile(ls, 50)),
		Tail:    float64(percentile(ls, pct)),
		TailPct: pct,
		N:       len(ls),
	}
}

// sliced is a run's latencies grouped by the slice of the measured window
// each operation started in. The loop's slices all span the same time; an
// insert probe is one slice of its own, used for latencies only.
type sliced []latencies

// pooled returns every sample of s in one set.
func (s sliced) pooled() latencies {
	var all latencies
	for _, ls := range s {
		all = append(all, ls...)
	}
	return all
}

// summarize reports the median and the want-th percentile of s, each as the
// middle mean over slices of the slice's own value. A stretch in which the
// shared host slowed the whole process then barely moves the result unless
// it covers a quarter of the slices. When the average slice is too small to
// name the want-th percentile under the tail rule, the tail comes from the
// pooled samples instead; a slice smaller than average names its own
// highest honest percentile. Empty slices are skipped. Slices are sorted in
// place.
func (s sliced) summarize(want float64) summary {
	all := s.pooled()
	var p50s, tails []float64
	for _, ls := range s {
		if len(ls) == 0 {
			continue
		}
		one := ls.summarize(want)
		p50s, tails = append(p50s, one.P50), append(tails, one.Tail)
	}
	if len(p50s) == 0 {
		return summary{}
	}
	out := all.summarize(want)
	out.P50 = middleMean(p50s)
	if maxPercentile(len(all)/len(p50s)) >= want {
		out.Tail, out.TailPct = middleMean(tails), want
	}
	return out
}

// rate returns the middle mean over slices of the operations per second
// that completed without failing, for slices of the given length. A slice's
// rate is a count, so a median over slices would jump between a few values.
func (s sliced) rate(slice float64) float64 {
	rates := make([]float64, len(s))
	for i, ls := range s {
		for _, l := range ls {
			if l != failedLatency {
				rates[i]++
			}
		}
		rates[i] /= slice
	}
	return middleMean(rates)
}
