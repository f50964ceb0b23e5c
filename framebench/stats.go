package main

import (
	"math"
	"sort"

	"coterie/internal/obs"
)

// minBeyond is the percentile rule: a reported percentile needs at least
// this many samples beyond it, or it is flagged.
const minBeyond = 10

// pct is a percentile read from a sample.
type pct struct {
	value  float64
	n      int // sample count
	beyond int // samples strictly after the reported rank
}

// supported reports whether the percentile rule holds.
func (p pct) supported() bool { return p.beyond >= minBeyond }

// percentile returns the nearest-rank q-quantile of xs (sorted in place):
// the value at rank ceil(q·n), and how many samples lie beyond that rank.
// An empty sample reads 0.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(n-1, i))
	return pct{value: xs[i], n: n, beyond: n - 1 - i}
}

// median is the 0.5 nearest-rank percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5).value
}

// ratio is num/den, 0 when den is 0 (the base is reported alongside).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// regDelta is the change of a registry between two snapshots.
type regDelta struct {
	before, after obs.Snapshot
}

func (d regDelta) counter(name string) int64 {
	return d.after.Counters[name] - d.before.Counters[name]
}

// histQuantile estimates the q-quantile of the observations a histogram
// received between the snapshots, interpolating within the bucket that
// holds the rank, as the registry's own snapshots do. It returns the
// estimate and the observation count.
func (d regDelta) histQuantile(name string, q float64) (float64, int64) {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	if len(a.Counts) == 0 {
		return 0, 0
	}
	counts := make([]int64, len(a.Counts))
	var total int64
	for i := range counts {
		counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			counts[i] -= b.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(a.Bounds) {
			return a.Bounds[len(a.Bounds)-1], total
		}
		lo := 0.0
		if i > 0 {
			lo = a.Bounds[i-1]
		}
		return lo + (a.Bounds[i]-lo)*(rank-prev)/float64(c), total
	}
	return a.Bounds[len(a.Bounds)-1], total
}
