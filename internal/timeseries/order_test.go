package timeseries

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortPercentile is the reference the selection kernel must match bit for
// bit: sort a copy, then interpolate between the two bracketing entries.
func sortPercentile(vals []float64, p float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	v, _ := SortedPercentile(sorted, p)
	return v
}

// sameFloat is bit equality up to the two things a sort does not fix either:
// which of ±0 (equal under <) lands at a rank, and which NaN payload.
func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b)
}

// percentileInputs yields the property-test corpus: every length class the
// selection path sees (tiny, the insertion-sort cutoff, the ~1k context),
// with continuous, heavily tied, constant, sorted and reversed values.
func percentileInputs(rng *rand.Rand) [][]float64 {
	var out [][]float64
	lengths := []int{1, 2, 3, 4, 7, 16, 17, 18, 33, 100, 257, 940, 2000}
	for i := 0; i < 20; i++ {
		lengths = append(lengths, 1+rng.Intn(2000))
	}
	for _, n := range lengths {
		cont := make([]float64, n)
		ties := make([]float64, n)
		constant := make([]float64, n)
		asc := make([]float64, n)
		for i := range cont {
			cont[i] = rng.NormFloat64() * 50
			ties[i] = float64(rng.Intn(4))
			constant[i] = 3.25
			asc[i] = float64(i / 3)
		}
		desc := make([]float64, n)
		for i := range desc {
			desc[i] = asc[n-1-i]
		}
		out = append(out, cont, ties, constant, asc, desc)
	}
	return out
}

func TestPercentileSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var scratch []float64
	for _, vals := range percentileInputs(rng) {
		orig := append([]float64(nil), vals...)
		ps := []float64{0, 1, 50, 90, 99, 100, rng.Float64() * 100, rng.Float64() * 100}
		for _, p := range ps {
			got, err := PercentileScratch(vals, p, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if want := sortPercentile(vals, p); !sameFloat(got, want) {
				t.Fatalf("n=%d p%v: selection %v, sort %v", len(vals), p, got, want)
			}
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("n=%d: input mutated at %d", len(vals), i)
			}
		}
	}
}

func TestPercentileBandAndMaxMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var scratch []float64
	for _, vals := range percentileInputs(rng) {
		orig := append([]float64(nil), vals...)
		_, wantMax, _ := MinMax(vals)
		for _, band := range [][2]float64{{1, 99}, {0, 100}, {50, 50}, {99, 1}, {rng.Float64() * 50, 50 + rng.Float64()*50}} {
			lo, hi, err := PercentileBandScratch(vals, band[0], band[1], &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if want := sortPercentile(vals, band[0]); !sameFloat(lo, want) {
				t.Fatalf("n=%d band %v: lo %v, sort %v", len(vals), band, lo, want)
			}
			if want := sortPercentile(vals, band[1]); !sameFloat(hi, want) {
				t.Fatalf("n=%d band %v: hi %v, sort %v", len(vals), band, hi, want)
			}
		}
		for _, p := range []float64{0, 90, 100, rng.Float64() * 100} {
			pct, max, err := PercentileMaxScratch(vals, p, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if want := sortPercentile(vals, p); !sameFloat(pct, want) {
				t.Fatalf("n=%d p%v: %v, sort %v", len(vals), p, pct, want)
			}
			if max != wantMax {
				t.Fatalf("n=%d p%v: max %v, MinMax %v", len(vals), p, max, wantMax)
			}
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("n=%d: input mutated at %d", len(vals), i)
			}
		}
	}
}

func TestPercentileEmptyAndNaN(t *testing.T) {
	var scratch []float64
	if _, err := PercentileScratch(nil, 50, &scratch); err != ErrEmpty {
		t.Errorf("empty: err = %v", err)
	}
	if _, _, err := PercentileBandScratch(nil, 1, 99, &scratch); err != ErrEmpty {
		t.Errorf("empty band: err = %v", err)
	}
	if _, _, err := PercentileMaxScratch(nil, 90, &scratch); err != ErrEmpty {
		t.Errorf("empty max: err = %v", err)
	}
	// sort.Float64s orders NaNs first; the selection must agree.
	nan := math.NaN()
	vals := []float64{4, nan, 1, nan, 3, 2, nan}
	for _, p := range []float64{0, 20, 40, 50, 60, 90, 100} {
		got, _ := PercentileScratch(vals, p, &scratch)
		if want := sortPercentile(vals, p); !sameFloat(got, want) {
			t.Errorf("NaN p%v: %v, sort %v", p, got, want)
		}
	}
	if _, max, _ := PercentileMaxScratch(vals, 10, &scratch); max != 4 {
		t.Errorf("max with NaNs = %v, want 4", max)
	}
	if _, max, _ := PercentileMaxScratch([]float64{nan, nan}, 50, &scratch); max == max {
		t.Errorf("all-NaN max = %v, want NaN", max)
	}
}

// FuzzPercentile checks the selection kernel against the sort reference on
// arbitrary bit patterns (NaN, ±Inf, ±0, subnormals included).
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{}, 50.0)
	seed := make([]byte, 0, 40*8)
	var buf [8]byte
	for i := 0; i < 40; i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(i%5)))
		seed = append(seed, buf[:]...)
	}
	f.Add(seed, 99.0)
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(math.NaN()))
	f.Add(append(append([]byte{}, buf[:]...), seed[:80]...), 1.0)

	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		n := len(data) / 8
		if n > 4096 {
			n = 4096
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		if p != p {
			p = 50
		}
		orig := append([]float64(nil), vals...)
		var scratch []float64
		got, err := PercentileScratch(vals, p, &scratch)
		if n == 0 {
			if err != ErrEmpty {
				t.Fatalf("empty input: err = %v", err)
			}
			return
		}
		if want := sortPercentile(vals, p); !sameFloat(got, want) {
			t.Fatalf("p%v of %v: selection %v, sort %v", p, vals, got, want)
		}
		lo, hi, _ := PercentileBandScratch(vals, p/2, p, &scratch)
		if want := sortPercentile(vals, p/2); !sameFloat(lo, want) {
			t.Fatalf("band lo p%v: %v, sort %v", p/2, lo, want)
		}
		if want := sortPercentile(vals, p); !sameFloat(hi, want) {
			t.Fatalf("band hi p%v: %v, sort %v", p, hi, want)
		}
		_, max, _ := PercentileMaxScratch(vals, p, &scratch)
		if want := sortPercentile(vals, 100); !sameFloat(max, want) {
			t.Fatalf("max: %v, sort %v", max, want)
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("input mutated at %d", i)
			}
		}
	})
}

// TestSeriesIntoWrapAround puts the ring's head at every position, at
// partial and full size and after Clear, and checks the two-copy unroll
// against an At(i) loop.
func TestSeriesIntoWrapAround(t *testing.T) {
	const capacity = 7
	check := func(r *Ring, what string) {
		t.Helper()
		got := r.SeriesInto(&Series{})
		if got.Len() != r.Len() {
			t.Fatalf("%s: len %d, want %d", what, got.Len(), r.Len())
		}
		for i := 0; i < r.Len(); i++ {
			ts, v := r.At(i)
			if i == 0 && got.Start() != ts {
				t.Fatalf("%s: start %d, want %d", what, got.Start(), ts)
			}
			if got.At(i) != v {
				t.Fatalf("%s: idx %d = %v, want %v", what, i, got.At(i), v)
			}
		}
		snap := r.Snapshot()
		for i := range snap.Vals {
			ts, v := r.At(i)
			if snap.Times[i] != ts || snap.Vals[i] != v {
				t.Fatalf("%s: snapshot idx %d = (%d,%v), want (%d,%v)", what, i, snap.Times[i], snap.Vals[i], ts, v)
			}
		}
	}
	for shift := 0; shift < capacity; shift++ {
		for size := 0; size <= capacity; size++ {
			// r stays full with its head at (shift+size) mod capacity;
			// cleared and fresh hold size samples from head 0, one of
			// them in storage a full ring used before Clear.
			r := NewRing(capacity)
			for i := 0; i < capacity+shift; i++ {
				r.Push(int64(i), float64(i))
			}
			cleared := NewRing(capacity)
			for i := 0; i < capacity+shift; i++ {
				cleared.Push(int64(i), float64(i))
			}
			cleared.Clear()
			fresh := NewRing(capacity)
			for i := 0; i < size; i++ {
				cleared.Push(int64(1000+i), float64(-i))
				fresh.Push(int64(i), float64(i)*1.5)
			}
			for i := 0; i < size; i++ {
				r.Push(int64(100+i), float64(i)+0.5)
			}
			check(r, "full ring, shifted head")
			check(cleared, "after Clear")
			check(fresh, "partial ring")
		}
	}
}

// BenchmarkPercentileScratch is the batch selection kernel's percentile at
// the mesh-400 context length (940 samples of a noisy level shift).
func BenchmarkPercentileScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 940)
	for i := range vals {
		vals[i] = 40 + rng.NormFloat64()*4
		if i > 600 {
			vals[i] += 15
		}
	}
	var scratch []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PercentileScratch(vals, 99, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}
