package changepoint

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fchain/internal/timeseries"
)

func stepSeries(n, at int, before, after, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		base := before
		if i >= at {
			base = after
		}
		vals[i] = base + noise*rng.NormFloat64()
	}
	return vals
}

func TestDetectSingleStep(t *testing.T) {
	vals := stepSeries(100, 60, 10, 30, 0.5, 1)
	points := Detect(vals, Config{})
	if len(points) == 0 {
		t.Fatal("no change point detected on a clear step")
	}
	found := false
	for _, p := range points {
		if p.Index >= 55 && p.Index <= 65 {
			found = true
			if p.Confidence < 0.95 {
				t.Errorf("low confidence %v at clear step", p.Confidence)
			}
			if math.Abs(p.Magnitude-20) > 3 {
				t.Errorf("magnitude = %v, want ~20", p.Magnitude)
			}
		}
	}
	if !found {
		t.Errorf("step at 60 not found; points = %+v", points)
	}
}

func TestDetectNoChangeOnStationaryNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 120)
	for i := range vals {
		vals[i] = 50 + rng.NormFloat64()
	}
	points := Detect(vals, Config{Confidence: 0.99})
	// Stationary noise should produce few, low-magnitude points.
	for _, p := range points {
		if p.Magnitude > 2.5 {
			t.Errorf("spurious large change point: %+v", p)
		}
	}
}

func TestDetectMultipleSteps(t *testing.T) {
	vals := make([]float64, 150)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		base := 10.0
		if i >= 50 {
			base = 25
		}
		if i >= 100 {
			base = 45
		}
		vals[i] = base + 0.5*rng.NormFloat64()
	}
	points := Detect(vals, Config{})
	var near50, near100 bool
	for _, p := range points {
		if p.Index >= 45 && p.Index <= 55 {
			near50 = true
		}
		if p.Index >= 95 && p.Index <= 105 {
			near100 = true
		}
	}
	if !near50 || !near100 {
		t.Errorf("steps not found: near50=%v near100=%v points=%+v", near50, near100, points)
	}
}

func TestDetectOrdering(t *testing.T) {
	vals := stepSeries(200, 80, 0, 40, 1, 3)
	points := Detect(vals, Config{})
	for i := 1; i < len(points); i++ {
		if points[i].Index <= points[i-1].Index {
			t.Fatalf("points not strictly ordered: %+v", points)
		}
	}
}

func TestDetectShortInput(t *testing.T) {
	if got := Detect([]float64{1, 2}, Config{}); len(got) != 0 {
		t.Errorf("short input should yield no points, got %+v", got)
	}
	if got := Detect(nil, Config{}); len(got) != 0 {
		t.Errorf("nil input should yield no points, got %+v", got)
	}
}

func TestSelectOutliersKeepsLargest(t *testing.T) {
	points := []Point{
		{Index: 10, Magnitude: 1},
		{Index: 20, Magnitude: 1.2},
		{Index: 30, Magnitude: 0.9},
		{Index: 40, Magnitude: 1.1},
		{Index: 50, Magnitude: 25}, // the abnormal one
	}
	out := SelectOutliers(points, 1.5)
	if len(out) != 1 || out[0].Index != 50 {
		t.Errorf("SelectOutliers = %+v, want only index 50", out)
	}
}

func TestSelectOutliersFewCandidates(t *testing.T) {
	points := []Point{{Index: 1, Magnitude: 3}, {Index: 2, Magnitude: 4}}
	out := SelectOutliers(points, 1.5)
	if len(out) != 2 {
		t.Errorf("with <3 candidates all should be kept, got %+v", out)
	}
}

func TestSelectOutliersUniformFallsBackToLargest(t *testing.T) {
	points := []Point{
		{Index: 1, Magnitude: 5},
		{Index: 2, Magnitude: 5},
		{Index: 3, Magnitude: 5.0001},
		{Index: 4, Magnitude: 5},
	}
	out := SelectOutliers(points, 1.5)
	if len(out) != 1 || out[0].Index != 3 {
		t.Errorf("uniform magnitudes should keep the single largest, got %+v", out)
	}
}

func TestSelectOutliersDoesNotMutateInput(t *testing.T) {
	points := []Point{{Index: 1, Magnitude: 1}, {Index: 2, Magnitude: 2}}
	_ = SelectOutliers(points, 1.5)
	if points[0].Index != 1 || points[1].Index != 2 {
		t.Error("input mutated")
	}
}

func TestRollbackOnsetGradualRamp(t *testing.T) {
	// Gradual fault: ramp starts at 100; detector may fire mid-ramp. The
	// rollback should walk to the earliest change point on the ramp, since
	// all ramp points share the same tangent.
	n := 200
	vals := make([]float64, n)
	for i := range vals {
		if i >= 100 {
			vals[i] = float64(i-100) * 2
		}
	}
	points := []Point{
		{Index: 105},
		{Index: 120},
		{Index: 140}, // selected abnormal point, mid-manifestation
	}
	onset := RollbackOnset(vals, points, 2, 0.1)
	// The sample-level refinement walks past the earliest detected change
	// point to the true ramp foot at 100.
	if onset < 98 || onset > 105 {
		t.Errorf("onset = %d, want the ramp foot (~100)", onset)
	}
}

func TestRollbackOnsetStopsAtDistinctTangent(t *testing.T) {
	// Flat, then ramp: a pre-fault change point on the flat part has a
	// distinct tangent, so rollback must stop at the first ramp point.
	n := 200
	vals := make([]float64, n)
	for i := range vals {
		if i >= 100 {
			vals[i] = float64(i-100) * 5
		}
	}
	points := []Point{
		{Index: 40},  // normal fluctuation on the flat region
		{Index: 110}, // fault onset
		{Index: 150}, // selected abnormal point
	}
	onset := RollbackOnset(vals, points, 2, 0.1)
	// Rollback must not cross into the flat region (the change point at 40
	// has a distinct tangent); the refinement lands at the ramp foot.
	if onset < 98 || onset > 110 {
		t.Errorf("onset = %d, want the ramp foot (~100)", onset)
	}
}

func TestRollbackOnsetBounds(t *testing.T) {
	vals := []float64{1, 2, 3}
	if got := RollbackOnset(vals, nil, 0, 0.1); got != 0 {
		t.Errorf("empty points should yield 0, got %d", got)
	}
	points := []Point{{Index: 1}}
	if got := RollbackOnset(vals, points, 5, 0.1); got != 0 {
		t.Errorf("out-of-range abnormalIdx should yield 0, got %d", got)
	}
	// vals is a pure ramp, so the sample-level refinement walks to 0.
	if got := RollbackOnset(vals, points, 0, 0.1); got != 0 {
		t.Errorf("single point rollback on a pure ramp = %d, want 0", got)
	}
}

// Property: bootstrap confidence is always within [0,1] and indices within
// bounds, for arbitrary inputs.
func TestDetectInvariantsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Mod(v, 1e6)
		}
		points := Detect(vals, Config{Bootstraps: 30})
		for _, p := range points {
			if p.Confidence < 0 || p.Confidence > 1 {
				return false
			}
			if p.Index <= 0 || p.Index >= len(vals) {
				return false
			}
			if p.Magnitude < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: detection is deterministic for a fixed config seed.
func TestDetectDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 80)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		a := Detect(vals, Config{Rand: rand.New(rand.NewSource(9))})
		b := Detect(vals, Config{Rand: rand.New(rand.NewSource(9))})
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// cusumPeak is the unfused CUSUM scan cusumPeakStd replaced: the index of
// the maximum |CUSUM| and the CUSUM range, without σ̂.
func cusumPeak(vals []float64) (idx int, sdiff float64) {
	m := timeseries.Mean(vals)
	var (
		s        float64
		maxS     = math.Inf(-1)
		minS     = math.Inf(1)
		maxAbs   float64
		maxAbsAt int
	)
	for i, v := range vals {
		s += v - m
		if s > maxS {
			maxS = s
		}
		if s < minS {
			minS = s
		}
		if a := math.Abs(s); a > maxAbs {
			maxAbs = a
			maxAbsAt = i + 1
		}
	}
	return maxAbsAt, maxS - minS
}

// TestCusumPeakStdMatchesUnfused pins the fused segment pass to the two
// scans it replaced: index, CUSUM range and σ̂ must equal cusumPeak plus
// timeseries.Std bit for bit, or detection verdicts would drift.
func TestCusumPeakStdMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inputs := [][]float64{nil, {5}, {1, 1, 1, 1}, {0, 1e300, -1e300, 3}}
	for n := 2; n < 300; n += 1 + n/4 {
		inputs = append(inputs, stepSeries(n, n/2, 10, 10+rng.Float64()*20, rng.Float64()*5, int64(n)))
		ramp := make([]float64, n)
		for i := range ramp {
			ramp[i] = float64(i)*0.37 + rng.NormFloat64()
		}
		inputs = append(inputs, ramp)
	}
	for _, vals := range inputs {
		idx, sdiff, sd := cusumPeakStd(vals)
		wantIdx, wantDiff := cusumPeak(vals)
		wantSd := timeseries.Std(vals)
		if idx != wantIdx || math.Float64bits(sdiff) != math.Float64bits(wantDiff) ||
			math.Float64bits(sd) != math.Float64bits(wantSd) {
			t.Fatalf("n=%d: fused (%d, %v, %v), unfused (%d, %v, %v)",
				len(vals), idx, sdiff, sd, wantIdx, wantDiff, wantSd)
		}
	}
}

// detectReference is the recursive detector Detect replaced: every segment
// recomputes its mean, the peak scan and σ̂, and table confidence comes from
// a binary search before it is compared with cfg.Confidence. Detect must
// reproduce it bit for bit.
func detectReference(vals []float64, cfg Config) []Point {
	cfg = cfg.withDefaults()
	var out []Point
	var seg func(vals []float64, offset int)
	seg = func(vals []float64, offset int) {
		if len(vals) < cfg.MinSegment {
			return
		}
		idx, sdiff, sd := cusumPeakStd(vals)
		if idx <= 0 || idx >= len(vals)-1 {
			return
		}
		var conf float64
		if cfg.Thresholds > 0 {
			conf = tableConfidence(len(vals), sdiff, sd, cfg.Thresholds)
		} else {
			conf = bootstrapConfidence(vals, sdiff, cfg, make([]float64, len(vals)))
		}
		if conf < cfg.Confidence {
			return
		}
		before := timeseries.Mean(vals[:idx])
		after := timeseries.Mean(vals[idx:])
		out = append(out, Point{
			Index:      offset + idx,
			Confidence: conf,
			Magnitude:  math.Abs(after - before),
			Before:     before,
			After:      after,
		})
		seg(vals[:idx], offset)
		seg(vals[idx:], offset+idx)
	}
	seg(vals, 0)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// samePoints reports whether two detections agree on every Point field,
// bit for bit.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index ||
			math.Float64bits(a[i].Confidence) != math.Float64bits(b[i].Confidence) ||
			math.Float64bits(a[i].Magnitude) != math.Float64bits(b[i].Magnitude) ||
			math.Float64bits(a[i].Before) != math.Float64bits(b[i].Before) ||
			math.Float64bits(a[i].After) != math.Float64bits(b[i].After) {
			return false
		}
	}
	return true
}

// oracleWindows returns seeded windows of the shapes selection meets:
// Gaussian noise, integer-quantized counters, constant runs, steps and
// ramps.
func oracleWindows(rng *rand.Rand, n int) map[string][]float64 {
	gauss := make([]float64, n)
	quant := make([]float64, n)
	runs := make([]float64, n)
	ramp := make([]float64, n)
	level := 7.0
	for i := range gauss {
		gauss[i] = 40 + 4*rng.NormFloat64()
		quant[i] = math.Round(20 + 3*rng.NormFloat64())
		if rng.Intn(25) == 0 {
			level = float64(rng.Intn(5))
		}
		runs[i] = level
		ramp[i] = 0.05*float64(i) + rng.NormFloat64()
	}
	return map[string][]float64{
		"gauss": gauss,
		"quant": quant,
		"runs":  runs,
		"step":  stepSeries(n, n*2/3, 10, 10+rng.Float64()*10, 1+rng.Float64()*3, rng.Int63()),
		"ramp":  ramp,
	}
}

// TestDetectMatchesReference pins the lean recursion (inherited segment
// means, the running prefix sum, the critical-entry test and the flat table
// slots) to the per-segment recomputation it replaced.
func TestDetectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sc Scratch
	for _, n := range []int{5, 6, 9, 17, 40, 121, 260, 520, 1200} {
		for shape, vals := range oracleWindows(rng, n) {
			for _, k := range []int{50, 200} {
				for _, conf := range []float64{0.9, 0.95, 0.99} {
					cfg := Config{Thresholds: k, Confidence: conf}
					got := sc.Detect(vals, cfg)
					want := detectReference(vals, cfg)
					if !samePoints(got, want) {
						t.Fatalf("%s n=%d k=%d conf=%v:\n got %+v\nwant %+v", shape, n, k, conf, got, want)
					}
				}
			}
			if n <= 121 {
				cfg := Config{Bootstraps: 50, Rand: rand.New(rand.NewSource(3))}
				got := Detect(vals, cfg)
				cfg.Rand = rand.New(rand.NewSource(3))
				if want := detectReference(vals, cfg); !samePoints(got, want) {
					t.Fatalf("bootstrap %s n=%d:\n got %+v\nwant %+v", shape, n, got, want)
				}
			}
		}
	}
}

// TestCriticalCountMatchesRatio: b is the smallest count whose ratio b/k,
// computed as the confidence is, reaches conf.
func TestCriticalCountMatchesRatio(t *testing.T) {
	for _, k := range []int{1, 3, 25, 50, 199, 200, 1000} {
		for _, conf := range []float64{1e-9, 0.01, 0.5, 0.9, 0.95, 0.99, 0.995, 1 - 1e-16, 1} {
			b := criticalCount(k, conf)
			want := k
			for c := 1; c <= k; c++ {
				if float64(c)/float64(k) >= conf {
					want = c
					break
				}
			}
			if b != want {
				t.Errorf("criticalCount(%d, %v) = %d, want %d", k, conf, b, want)
			}
		}
	}
}
