package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle pair for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedFloats(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile of sorted ascending xs by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it.
func nearestRank(sorted []float64, p int) float64 {
	r := rankOf(len(sorted), p)
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n, p int) int {
	return int(math.Ceil(float64(p) * float64(n) / 100))
}

// tailPercentile returns the highest whole percentile that still has at
// least minBeyond samples above its nearest rank, and its value. ok is false
// when the sample is too small to have any such percentile (n <= minBeyond).
func tailPercentile(xs []float64, minBeyond int) (p int, v float64, ok bool) {
	n := len(xs)
	for p = 99; p >= 1; p-- {
		if r := rankOf(n, p); r >= 1 && n-r >= minBeyond {
			return p, nearestRank(sortedFloats(xs), p), true
		}
	}
	return 0, 0, false
}

// tailWindow is how many consecutive verdicts one tail is taken over.
const tailWindow = 200

// chunkedTail splits the verdicts, in the order they were sent, into windows
// of about tailWindow, takes each window's tail percentile (the highest
// with ten verdicts beyond it, or the slowest in a window of ten or fewer),
// and returns the percentile and the median of the windows' tails. A host
// stall of a few seconds then lifts one window's tail, not the run's.
func chunkedTail(xs []float64) (p int, tail float64) {
	k := max(1, len(xs)/tailWindow)
	tails := make([]float64, k)
	for i := range tails {
		w := xs[i*len(xs)/k : (i+1)*len(xs)/k]
		var ok bool
		if p, tails[i], ok = tailPercentile(w, 10); !ok {
			p, tails[i] = 100, sortedFloats(w)[len(w)-1]
		}
	}
	return p, median(tails)
}

func sortedFloats(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
