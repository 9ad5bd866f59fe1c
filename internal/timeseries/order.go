package timeseries

import (
	"math"
	"math/bits"
	"sort"
)

// Order statistics by selection. The percentile queries on the selection
// path need one or two order statistics of a ~1k-sample context, not the
// whole sorted order, so they copy the values once and place the wanted
// ranks with an in-place quickselect (nth-element) in O(n) expected time.
//
// Bit-equality with sort-then-index is structural: sort.Float64s and the
// selection both order the values by the same < (NaNs first), so the k-th
// element of the sorted slice and the k-th order statistic found by
// selection are the same value — the multiset determines every order
// statistic, whatever order ties end up in. The interpolation then runs the
// same arithmetic on the same two operands. (Values equal under < but not
// in bits, ±0, may land either way; sort.Float64s is not stable either.)

// percentileRank maps a percentile, clamped to [0, 100], to the index of its
// lower order statistic among n values and the interpolation weight of the
// next one.
func percentileRank(p float64, n int) (lo int, frac float64) {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	return lo, rank - float64(lo)
}

// selection is a scratch copy of a multiset being partially ordered in
// place: its NaNs first, where sort.Float64s puts them, then the other
// values in quickselect partitions.
type selection struct {
	buf  []float64
	nans int
}

// loadSelection copies vals into *scratch (grown as needed and written
// back) and moves every NaN to the front.
func loadSelection(vals []float64, scratch *[]float64) selection {
	buf := append((*scratch)[:0], vals...)
	*scratch = buf
	nans := 0
	for i, v := range buf {
		if v != v {
			buf[i], buf[nans] = buf[nans], v
			nans++
		}
	}
	return selection{buf: buf, nans: nans}
}

// percentile returns the percentile whose lower order statistic is the
// lo-th, leaving that statistic at buf[lo] with every smaller value before
// it and every larger one after it.
func (s selection) percentile(lo int, frac float64) float64 {
	if lo < s.nans {
		return s.buf[lo] // NaN, and NaN interpolates to NaN
	}
	rest := s.buf[s.nans:]
	k := lo - s.nans
	nthElement(rest, k)
	if frac == 0 {
		return rest[k]
	}
	// The next order statistic is the smallest value above the selected one.
	next := rest[k+1]
	for _, v := range rest[k+2:] {
		if v < next {
			next = v
		}
	}
	return rest[k]*(1-frac) + next*frac
}

// PercentileBandScratch returns the pLo-th and pHi-th percentiles of vals
// from one scratch copy, each bit-identical to PercentileScratch. After the
// pHi selection the values up to its rank are already gathered in front, so
// when pLo ranks below pHi its selection only searches there. The input is
// never mutated.
func PercentileBandScratch(vals []float64, pLo, pHi float64, scratch *[]float64) (lo, hi float64, err error) {
	if len(vals) == 0 {
		return 0, 0, ErrEmpty
	}
	s := loadSelection(vals, scratch)
	kh, fh := percentileRank(pHi, len(vals))
	kl, fl := percentileRank(pLo, len(vals))
	hi = s.percentile(kh, fh)
	if kl < kh {
		// buf[:kh+1] holds the kh+1 smallest values, which include both
		// order statistics the lower percentile interpolates.
		s.buf = s.buf[:kh+1]
	}
	return s.percentile(kl, fl), hi, nil
}

// PercentileMaxScratch returns the p-th percentile of vals, bit-identical to
// PercentileScratch, together with the largest value in the order
// sort.Float64s gives (the largest non-NaN value; NaN only when every value
// is NaN). The maximum comes from a scan of the partition above the
// selected rank. The input is never mutated.
func PercentileMaxScratch(vals []float64, p float64, scratch *[]float64) (pct, max float64, err error) {
	if len(vals) == 0 {
		return 0, 0, ErrEmpty
	}
	s := loadSelection(vals, scratch)
	k, frac := percentileRank(p, len(vals))
	pct = s.percentile(k, frac)
	upper := s.buf[s.nans:]
	if k >= s.nans {
		upper = s.buf[k:] // the selection left every larger value here
	}
	if len(upper) == 0 {
		return pct, s.buf[len(s.buf)-1], nil
	}
	max = upper[0]
	for _, v := range upper[1:] {
		if v > max {
			max = v
		}
	}
	return pct, max, nil
}

// nthElement reorders a (which must hold no NaN) so that a[k] is the value
// sort.Float64s would put there, with a[:k] <= a[k] <= a[k+1:]. It is
// Hoare's quickselect with a median-of-three pivot, finishing short ranges
// by insertion sort; past a 2·log2(n) partition budget it sorts the
// remaining range, which bounds the worst case at O(n log n).
func nthElement(a []float64, k int) {
	lo, hi := 0, len(a)-1
	budget := 2 * bits.Len(uint(len(a)))
	for hi-lo > 16 {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			return
		}
		budget--
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		// a[lo] <= pivot <= a[hi] keeps both scans in range.
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] <= pivot, a[i..hi] >= pivot, and anything strictly
		// between j and i equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
