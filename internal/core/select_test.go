package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fchain/internal/metric"
	"fchain/internal/obs"
	"fchain/internal/timeseries"
)

// feedSeries pushes a full value series into one metric of a monitor.
func feedSeries(t *testing.T, m *Monitor, k metric.Kind, vals []float64) {
	t.Helper()
	for i, v := range vals {
		if err := m.Observe(int64(i), k, v); err != nil {
			t.Fatal(err)
		}
	}
}

// periodicWithStep builds a learned periodic signal with an optional fault
// step at stepAt.
func periodicWithStep(n int, stepAt int, stepHeight float64, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		v := 50 + 10*math.Sin(2*math.Pi*float64(i)/60) + noise*rng.NormFloat64()
		if stepAt >= 0 && i >= stepAt {
			v += stepHeight
		}
		vals[i] = v
	}
	return vals
}

func TestObserveInvalidKind(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	if err := m.Observe(0, metric.Kind(99), 1); err == nil {
		t.Error("invalid kind should error")
	}
}

func TestObserveRejectsBadSamples(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := m.Observe(0, metric.CPU, v)
		if !errors.Is(err, ErrBadSample) {
			t.Errorf("Observe(%v) = %v, want ErrBadSample", v, err)
		}
	}
	// Rejected samples must leave no trace in the history.
	if _, _, ok := m.shards[metric.CPU].samples.Last(); ok {
		t.Error("rejected sample was recorded")
	}
	if err := m.Observe(0, metric.CPU, 1); err != nil {
		t.Errorf("valid sample after rejections: %v", err)
	}
}

func TestObserveRejectsTimeRegression(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	if err := m.Observe(10, metric.CPU, 1); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []int64{9, 10} { // earlier and equal both regress
		err := m.Observe(tt, metric.CPU, 2)
		if !errors.Is(err, ErrTimeRegression) {
			t.Errorf("Observe(t=%d) = %v, want ErrTimeRegression", tt, err)
		}
	}
	// Other metrics keep independent clocks.
	if err := m.Observe(5, metric.Memory, 1); err != nil {
		t.Errorf("independent metric rejected: %v", err)
	}
	if err := m.Observe(11, metric.CPU, 2); err != nil {
		t.Errorf("advancing sample rejected: %v", err)
	}
	if m.shards[metric.CPU].samples.Len() != 2 {
		t.Errorf("history holds %d samples, want 2", m.shards[metric.CPU].samples.Len())
	}
}

func TestIngestAbsorbsDirtWithQuality(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	if err := m.Ingest(0, metric.CPU, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(1, metric.CPU, math.NaN()); err != nil {
		t.Fatalf("Ingest must absorb NaN, got %v", err)
	}
	for ti := int64(2); ti < 40; ti++ {
		if err := m.Ingest(ti, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushIngest(100)
	st := m.Quality()
	if st.DroppedInvalid != 1 || st.Filled != 1 {
		t.Errorf("stats = %v, want the NaN dropped and its slot interpolated", st)
	}
	if q := qualityOf(st); q.Confidence() >= 1 || q.Confidence() <= 0 {
		t.Errorf("confidence = %v, want degraded in (0,1)", q.Confidence())
	}
	rep := m.Analyze(90)
	if rep.Quality.Stats.DroppedInvalid != 1 {
		t.Errorf("report quality missing: %+v", rep.Quality)
	}
}

func TestIngestLongGapSeversHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFillGap = 5
	cfg.ReorderWindow = 1
	m := NewMonitor("c", cfg)
	for ti := int64(0); ti < 100; ti++ {
		if err := m.Ingest(ti, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	// 900-second outage, far beyond MaxFillGap.
	for ti := int64(1000); ti < 1050; ti++ {
		if err := m.Ingest(ti, metric.CPU, 50); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushIngest(2000)
	s := m.shards[metric.CPU].samples.Series()
	if s.Start() < 1000 {
		t.Errorf("pre-gap history survived: series starts at %d", s.Start())
	}
	if s.Len() != 50 {
		t.Errorf("post-gap history holds %d samples, want 50", s.Len())
	}
	if st := m.Quality(); st.LongGaps != 1 || st.GapSeconds == 0 {
		t.Errorf("gap not counted: %v", st)
	}
}

func TestObserveVector(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	var vec metric.Vector
	vec.Set(metric.CPU, 42)
	if err := m.ObserveVector(0, &vec); err != nil {
		t.Fatal(err)
	}
	if _, v, ok := m.shards[metric.CPU].samples.Last(); !ok || v != 42 {
		t.Errorf("sample not recorded: %v %v", v, ok)
	}
}

func TestAnalyzeCleanSignalNoAbnormal(t *testing.T) {
	// A learned periodic signal with mild noise must produce no abnormal
	// change points: its change points are predictable.
	m := NewMonitor("c", DefaultConfig())
	vals := periodicWithStep(900, -1, 0, 0.5, 1)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	for _, ch := range report.Changes {
		if ch.Metric == metric.CPU {
			t.Errorf("clean periodic signal flagged abnormal: %+v", ch)
		}
	}
}

func TestAnalyzeDetectsUnseenStep(t *testing.T) {
	// A step the model never saw must be selected, with the onset near the
	// true injection time.
	m := NewMonitor("c", DefaultConfig())
	const stepAt = 850
	vals := periodicWithStep(900, stepAt, 40, 0.5, 2)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("unseen step not flagged")
	}
	found := false
	for _, ch := range report.Changes {
		if ch.Metric != metric.CPU {
			continue
		}
		found = true
		if ch.Onset < stepAt-6 || ch.Onset > stepAt+6 {
			t.Errorf("onset = %d, want near %d", ch.Onset, stepAt)
		}
		if ch.Direction != timeseries.TrendUp {
			t.Errorf("direction = %v, want up", ch.Direction)
		}
		if ch.PredErr <= ch.Expected {
			t.Errorf("selected point must exceed expected error: %v <= %v", ch.PredErr, ch.Expected)
		}
	}
	if !found {
		t.Error("no CPU change in report")
	}
}

func TestAnalyzeDownwardStep(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	vals := periodicWithStep(900, 860, -35, 0.5, 3)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("downward step not flagged")
	}
	if report.Direction() != timeseries.TrendDown {
		t.Errorf("direction = %v, want down", report.Direction())
	}
}

func TestAnalyzeBurstyMetricNotFlagged(t *testing.T) {
	// Fig. 3's reduce-node scenario: a very bursty but stationary metric
	// produces outlier change points, yet the adaptive expected error is
	// high, so none survive the predictability filter.
	m := NewMonitor("c", DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 900)
	for i := range vals {
		vals[i] = 30 + 12*rng.NormFloat64()
		if rng.Float64() < 0.05 {
			vals[i] += 40 * rng.Float64() // random peaks
		}
	}
	feedSeries(t, m, metric.DiskWrite, vals)
	report := m.Analyze(899)
	for _, ch := range report.Changes {
		if ch.Metric == metric.DiskWrite {
			t.Errorf("bursty stationary metric flagged abnormal: %+v", ch)
		}
	}
}

func TestAnalyzeBurstyVsFaultySelection(t *testing.T) {
	// The Fig. 3 pair: the faulty node's disk-write ramp is selected while
	// the normal node's bursty CPU is filtered.
	cfg := DefaultConfig()
	faulty := NewMonitor("map", cfg)
	normal := NewMonitor("reduce", cfg)
	rng := rand.New(rand.NewSource(5))
	const n, fault = 900, 840
	for i := 0; i < n; i++ {
		fv := 20 + 5*math.Sin(2*math.Pi*float64(i)/45) + rng.NormFloat64()
		if i >= fault {
			fv += float64(i-fault) * 1.5 // fault ramp
		}
		if err := faulty.Observe(int64(i), metric.DiskWrite, fv); err != nil {
			t.Fatal(err)
		}
		nv := 40 + 15*rng.NormFloat64()
		if rng.Float64() < 0.04 {
			nv += 50
		}
		if err := normal.Observe(int64(i), metric.CPU, nv); err != nil {
			t.Fatal(err)
		}
	}
	fr := faulty.Analyze(n - 1)
	nr := normal.Analyze(n - 1)
	if !fr.Abnormal() {
		t.Error("faulty map node's ramp not selected")
	}
	if nr.Abnormal() {
		t.Errorf("normal reduce node's bursty CPU wrongly selected: %+v", nr.Changes)
	}
}

func TestRollbackFindsRampStart(t *testing.T) {
	// Gradual manifestation: the selected change point may sit mid-ramp;
	// rollback must walk to the ramp start.
	m := NewMonitor("c", DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	const n, fault = 900, 820
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100 + 2*rng.NormFloat64()
		if i >= fault {
			vals[i] += float64(i-fault) * 2
		}
	}
	feedSeries(t, m, metric.Memory, vals)
	report := m.Analyze(n - 1)
	if !report.Abnormal() {
		t.Fatal("ramp not detected")
	}
	if report.Onset < fault-8 || report.Onset > fault+10 {
		t.Errorf("onset = %d, want near ramp start %d", report.Onset, fault)
	}
}

func TestAnalyzeEarliestOnsetAcrossMetrics(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	cpu := periodicWithStep(900, 870, 40, 0.5, 7)
	mem := periodicWithStep(900, 845, 40, 0.5, 8)
	for i := 0; i < 900; i++ {
		if err := m.Observe(int64(i), metric.CPU, cpu[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.Observe(int64(i), metric.Memory, mem[i]); err != nil {
			t.Fatal(err)
		}
	}
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("nothing detected")
	}
	if report.Onset > 852 {
		t.Errorf("component onset = %d, want the earlier memory onset (~845)", report.Onset)
	}
	kinds := report.AbnormalMetrics()
	if len(kinds) < 1 {
		t.Fatal("no abnormal metrics listed")
	}
}

func TestAnalyzeShortHistory(t *testing.T) {
	m := NewMonitor("c", DefaultConfig())
	for i := 0; i < 5; i++ {
		if err := m.Observe(int64(i), metric.CPU, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	report := m.Analyze(4)
	if report.Abnormal() {
		t.Error("too-short history should not produce abnormal changes")
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	build := func() ComponentReport {
		m := NewMonitor("c", DefaultConfig())
		feedSeries(t, m, metric.CPU, periodicWithStep(900, 850, 40, 0.5, 9))
		return m.Analyze(899)
	}
	a, b := build(), build()
	if len(a.Changes) != len(b.Changes) || a.Onset != b.Onset {
		t.Errorf("analysis not deterministic: %+v vs %+v", a, b)
	}
}

func TestAdaptiveSmoothWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// White noise: wide window.
	noisy := make([]float64, 200)
	for i := range noisy {
		noisy[i] = rng.NormFloat64()
	}
	if got := adaptiveSmoothWidth(noisy, 5, &arena{}); got != 11 {
		t.Errorf("white-noise width = %d, want 11", got)
	}
	// Slow sine: keep the default.
	smooth := make([]float64, 200)
	for i := range smooth {
		smooth[i] = math.Sin(2 * math.Pi * float64(i) / 100)
	}
	if got := adaptiveSmoothWidth(smooth, 5, &arena{}); got != 5 {
		t.Errorf("smooth-signal width = %d, want 5", got)
	}
	// Too little context: keep the default.
	if got := adaptiveSmoothWidth(noisy[:8], 5, &arena{}); got != 5 {
		t.Errorf("short-context width = %d, want 5", got)
	}
	// Constant signal: keep the default.
	if got := adaptiveSmoothWidth(make([]float64, 50), 5, &arena{}); got != 5 {
		t.Errorf("constant-signal width = %d, want 5", got)
	}
}

func TestAdaptiveSmoothingSelectionStillWorks(t *testing.T) {
	cfg := Config{AdaptiveSmoothing: true}
	m := NewMonitor("c", cfg)
	vals := periodicWithStep(900, 850, 40, 0.5, 12)
	feedSeries(t, m, metric.CPU, vals)
	report := m.Analyze(899)
	if !report.Abnormal() {
		t.Fatal("step not detected with adaptive smoothing")
	}
}

// filterTrace runs one traced analysis of a CPU series and returns the
// report with the filter span's per-candidate verdicts ("cand:<t>" →
// reason), checking on the way that the untraced kernel agrees.
func filterTrace(t *testing.T, cfg Config, vals []float64) (ComponentReport, map[string]string) {
	t.Helper()
	m := NewMonitor("c", cfg)
	feedSeries(t, m, metric.CPU, vals)
	tv := int64(len(vals) - 1)
	tr := obs.NewTrace("select", tv)
	a := getArena()
	report := m.analyzeArena(tv, m.cfg, a, nil, tr, -1)
	putArena(a)
	if plain := m.Analyze(tv); !reflect.DeepEqual(plain, report) {
		t.Fatalf("traced report %+v, untraced %+v", report, plain)
	}
	reasons := map[string]string{}
	for _, sp := range tr.FindAll("filter") {
		for _, at := range sp.Attrs {
			if strings.HasPrefix(at.Key, "cand:") {
				reasons[at.Key] = at.Val
			}
		}
	}
	return report, reasons
}

// TestSelectionFilterBranches drives one window into each branch of the
// candidate filter under the mesh profile (fchain.MeshConfig: ExternalSpread
// 12, MinRelMagnitude 0.12) and pins the outcome to the values the eager
// kernel produced, so computing the context statistics on demand cannot
// change a verdict. Where a branch is decided by the context floor, the
// same window with the floor disabled shows the other outcome.
func TestSelectionFilterBranches(t *testing.T) {
	mesh := DefaultConfig()
	mesh.ExternalSpread = 12
	mesh.MinRelMagnitude = 0.12
	const n, tv = 1800, 1799
	series := func(seed int64, f func(i int, rng *rand.Rand) float64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(i, rng)
		}
		return vals
	}
	// Context spikes leave large prediction errors behind: the floor's
	// max term lifts the bar over a later transient bump.
	spiky := series(3, func(i int, rng *rand.Rand) float64 {
		v := 50 + rng.NormFloat64()
		if i < tv-200 && i%97 == 0 {
			v += 40
		}
		if i >= tv-60 && i < tv-45 {
			v += 12
		}
		return v
	})
	cases := []struct {
		name    string
		vals    []float64
		fixed   float64
		cand    string // the candidate whose verdict names the branch
		reason  string
		noFloor string // its verdict with the context floor disabled ("" = not checked)
		want    []AbnormalChange
	}{
		{
			name: "sub-floor",
			vals: series(1, func(i int, rng *rand.Rand) float64 {
				v := 100 + 0.3*rng.NormFloat64()
				if i >= tv-50 {
					v += 6 // 6% of the level, under the 12% floor
				}
				return v
			}),
			cand: "cand:1749", reason: "sub-floor",
		},
		{
			// A noisy transient hill: the prediction error stays within
			// the burstiness the FFT expects, floor or no floor.
			name: "predictable-fft",
			vals: series(7, func(i int, rng *rand.Rand) float64 {
				v := 50 + 3*rng.NormFloat64()
				if d := i - (tv - 90); d >= 0 && d < 40 {
					v += 15 * float64(d) / 40
				} else if d >= 40 && d < 80 {
					v += 15 * float64(80-d) / 40
				}
				return v
			}),
			cand: "cand:1771", reason: "predictable", noFloor: "predictable",
		},
		{
			name: "predictable-context-max",
			vals: spiky,
			cand: "cand:1755", reason: "predictable", noFloor: "pred-err",
		},
		{
			// Coin-flip context: the model errs by about the same amount
			// every step, so the floor's p90 term exceeds its max term and
			// decides the bump.
			name: "predictable-context-p90",
			vals: series(4, func(i int, rng *rand.Rand) float64 {
				v := 60 + 0.5*rng.NormFloat64()
				if i < tv-100 {
					v = 50 + 20*float64(rng.Intn(2))
				}
				if i >= tv-60 && i < tv-45 {
					v += 22
				}
				return v
			}),
			cand: "cand:1755", reason: "predictable", noFloor: "pred-err",
		},
		{
			// A gradual leak: small per-step errors, a large persistent
			// shift.
			name: "bypass",
			vals: series(5, func(i int, rng *rand.Rand) float64 {
				v := 50 + 0.5*rng.NormFloat64()
				if d := float64(i - (tv - 80)); d > 40 {
					v += 40
				} else if d >= 0 {
					v += d
				}
				return v
			}),
			cand: "cand:1740", reason: "bypass",
			want: []AbnormalChange{{Component: "c", Metric: metric.CPU, ChangeAt: 1740, Onset: 1724,
				PredErr: 1.9983951582721886, Expected: 2.5026682131888847, Magnitude: 33.23075842060306, Direction: timeseries.TrendUp}},
		},
		{
			// A shift within the context's spread that still leaves its
			// historical 1st–99th percentile band and stays out.
			name: "range-escape",
			vals: series(6, func(i int, rng *rand.Rand) float64 {
				v := 30 + 40*rng.Float64()
				if i >= tv-140 {
					v = 65 + 0.5*rng.NormFloat64()
				}
				if i >= tv-40 {
					v = 72 + 0.5*rng.NormFloat64()
				}
				return v
			}),
			cand: "cand:1758", reason: "escaped",
			want: []AbnormalChange{{Component: "c", Metric: metric.CPU, ChangeAt: 1758, Onset: 1759,
				PredErr: 11.230984844809633, Expected: 35.73732219999707, Magnitude: 6.823700071972397, Direction: timeseries.TrendUp}},
		},
		{
			name: "fixed-threshold", vals: spiky, fixed: 5,
			cand: "cand:1755", reason: "pred-err",
			want: []AbnormalChange{{Component: "c", Metric: metric.CPU, ChangeAt: 1755, Onset: 1754,
				PredErr: 12.689532780006559, Expected: 5, Magnitude: 9.804723219946474, Direction: timeseries.TrendDown}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mesh
			cfg.FixedThreshold = tc.fixed
			report, reasons := filterTrace(t, cfg, tc.vals)
			if got := reasons[tc.cand]; got != tc.reason {
				t.Errorf("%s: %q, want %q (all: %v)", tc.cand, got, tc.reason, reasons)
			}
			if !reflect.DeepEqual(report.Changes, tc.want) {
				t.Errorf("changes %+v\nwant %+v", report.Changes, tc.want)
			}
			if tc.noFloor != "" {
				cfg.SelfCalibration, cfg.ContextMaxFactor = 1e-12, 1e-12
				if _, reasons := filterTrace(t, cfg, tc.vals); reasons[tc.cand] != tc.noFloor {
					t.Errorf("without the context floor %s: %q, want %q", tc.cand, reasons[tc.cand], tc.noFloor)
				}
			}
		})
	}
}
