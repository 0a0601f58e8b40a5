package main

import (
	"fmt"
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a percentile before
// the run reports it: fewer and the figure is one or two outliers.
const tailMinBeyond = 10

// samples is a set of measurements of one quantity, in the quantity's unit.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := min(max(nearestRank(len(s), q), 1), len(s))
	return s[rank-1]
}

// nearestRank is the 1-based rank of the q-quantile of n samples.
func nearestRank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

func (s samples) median() float64 { return s.sorted().quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// tailStat is the highest percentile a sample set supports.
type tailStat struct {
	// Percentile is in percent: the highest nearest-rank percentile with
	// at least tailMinBeyond samples strictly beyond its rank.
	Percentile float64
	Value      float64
	N          int
}

// tail reports the highest percentile of sorted samples that has at least
// tailMinBeyond samples beyond it, with the sample count; ok is false when
// the set is too small to support any percentile that way.
func (s samples) tail() (tailStat, bool) {
	n := len(s)
	rank := n - tailMinBeyond
	if rank < 1 {
		return tailStat{N: n}, false
	}
	return tailStat{Percentile: 100 * float64(rank) / float64(n), Value: s[rank-1], N: n}, true
}

// supports reports whether the q-quantile of n samples has at least
// tailMinBeyond samples beyond it.
func supports(n int, q float64) bool {
	return n-nearestRank(n, q) >= tailMinBeyond
}

// describe renders a latency set for the run log: median, the requested
// tail quantile, and the highest supported percentile with the count.
func describe(name, unit string, s samples, q float64) string {
	s = s.sorted()
	t, ok := s.tail()
	if !ok {
		return fmt.Sprintf("%s: n=%d, too few samples for a tail (p50=%.4g %s)", name, len(s), s.quantile(0.5), unit)
	}
	note := ""
	if !supports(len(s), q) {
		note = " (unsupported: fewer than 10 samples beyond it)"
	}
	return fmt.Sprintf("%s: n=%d p50=%.4g p%g=%.4g%s, highest supported p%.3g=%.4g %s",
		name, len(s), s.quantile(0.5), 100*q, s.quantile(q), note, t.Percentile, t.Value, unit)
}
