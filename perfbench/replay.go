package main

import (
	"time"

	"fchain/internal/changepoint"
	"fchain/internal/core"
	"fchain/internal/ingest"
	"fchain/internal/markov"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
)

// Replay budgets: enough calls for a steady per-call figure, few enough to
// keep a traced run short at any workload size.
const (
	replayWindows = 6000
	replaySamples = 1 << 20
	replayRings   = 2000
)

// window is one (component, metric) task window at a violation time, as the
// batch selection kernel sees it.
type window struct {
	raw, smoothed []float64
	// lookbackIdx is the first index inside the look-back region.
	lookbackIdx int
}

// taskWindows cuts the workload's own task windows at its first violation
// times, up to the replay budget.
func taskWindows(in *inputs) []window {
	cfg := in.cfg
	span := cfg.LookBack + cfg.BurstWindow
	series := len(in.comps) * metric.NumKinds
	tvs := max(1, replayWindows/series)
	var out []window
	for vi := 0; vi < tvs && vi < len(in.violations); vi++ {
		tv := in.violations[vi].TV
		for i := range in.comps {
			for k := range metric.Kinds {
				s := in.series[i][k]
				lo := max(tv-int64(span)+1, s.Start())
				raw := make([]float64, 0, span)
				for t := lo; t <= tv; t++ {
					raw = append(raw, in.value(i, k, t))
				}
				out = append(out, window{
					raw:         raw,
					smoothed:    timeseries.Smooth(raw, cfg.SmoothWindow),
					lookbackIdx: len(raw) - cfg.LookBack,
				})
			}
		}
	}
	return out
}

// cpConfig is the detector configuration the selection kernel uses.
func cpConfig(cfg core.Config) changepoint.Config {
	return changepoint.Config{Thresholds: cfg.Bootstraps, Confidence: cfg.CPConfidence}
}

// firstDetect times the first Detect of the process: the threshold tables
// for every segment length it visits are built inside it. Call it before
// anything else detects.
func firstDetect(cfg core.Config, ws []window) time.Duration {
	var sc changepoint.Scratch
	t0 := time.Now()
	sc.Detect(ws[0].smoothed, cpConfig(cfg))
	return time.Since(t0)
}

// kernelStats are the per-call costs of the selection kernels, replayed on
// the workload's own windows.
type kernelStats struct {
	detectUS, pointsPerWindow, rollbackUS, expectedErrUS float64
}

// replayKernels runs detect, outlier selection, FFT expected error and
// rollback over every window, timing each kernel.
func replayKernels(cfg core.Config, ws []window) kernelStats {
	var (
		sc                          changepoint.Scratch
		detect, rollback, expErr    time.Duration
		points, rollbacks, expCalls int
	)
	for _, w := range ws {
		t0 := time.Now()
		pts := sc.Detect(w.smoothed, cpConfig(cfg))
		detect += time.Since(t0)
		points += len(pts)
		if len(pts) == 0 {
			continue
		}
		pts = append([]changepoint.Point(nil), pts...)
		first := -1
		for _, p := range sc.SelectOutliers(pts, cfg.OutlierSigma) {
			if p.Index < w.lookbackIdx {
				continue
			}
			lo, hi := burstBounds(p.Index, len(w.raw), cfg.BurstWindow)
			t0 := time.Now()
			_, _ = core.ExpectedErrorForWindow(w.raw[lo:hi], cfg)
			expErr += time.Since(t0)
			expCalls++
			if first < 0 {
				first = p.Index
			}
		}
		if first < 0 {
			continue
		}
		pos := 0
		for i, p := range pts {
			if p.Index == first {
				pos = i
			}
		}
		t0 = time.Now()
		changepoint.RollbackOnset(w.smoothed, pts, pos, cfg.TangentTol)
		rollback += time.Since(t0)
		rollbacks++
	}
	return kernelStats{
		detectUS:        us(detect) / float64(max(1, len(ws))),
		pointsPerWindow: float64(points) / float64(max(1, len(ws))),
		rollbackUS:      us(rollback) / float64(max(1, rollbacks)),
		expectedErrUS:   us(expErr) / float64(max(1, expCalls)),
	}
}

// burstBounds mirrors the selection kernel's FFT window for a change point
// at idx: the 2·burst samples before it, widened forward when too short.
func burstBounds(idx, n, burst int) (lo, hi int) {
	hi, lo = idx, max(0, idx-2*burst)
	if hi-lo < burst {
		hi = min(lo+2*burst+1, n)
	}
	return lo, hi
}

// modelStats are the per-sample costs of the write-path layers.
type modelStats struct {
	pushNS, observeNS, ringPushNS, materializeUS float64
}

// replayModels replays the write path layer by layer: the sanitizer on the
// live samples in time order, and the Markov model and history ring on the
// backlog in series order, as the run fed them.
func replayModels(in *inputs) modelStats {
	cfg := in.cfg
	var st modelStats
	series := len(in.comps) * metric.NumKinds

	// Sanitizer: warm each stream on the samples before the live range, then
	// push the live range time-major.
	liveFrom := in.backlogEnd + 1
	liveTo := in.feedEnd()
	if ticks := int64(replaySamples / series); liveTo-liveFrom+1 > ticks {
		liveTo = liveFrom + max(ticks, 1) - 1
	}
	sans := make([]*ingest.Sanitizer, series)
	for i := range in.comps {
		for k := range metric.Kinds {
			s := ingest.NewSanitizer(ingest.Config{})
			for t := max(liveFrom-128, in.backlogStart); t < liveFrom; t++ {
				s.Push(t, in.value(i, k, t))
			}
			sans[i*metric.NumKinds+k] = s
		}
	}
	t0 := time.Now()
	pushes := 0
	for t := liveFrom; t <= liveTo; t++ {
		for i := range in.comps {
			for k := range metric.Kinds {
				sans[i*metric.NumKinds+k].Push(t, in.value(i, k, t))
				pushes++
			}
		}
	}
	st.pushNS = float64(time.Since(t0).Nanoseconds()) / float64(max(1, pushes))

	// Markov model and ring: whole backlog series, series-major, until the
	// sample budget is spent.
	var (
		observe, ringPush time.Duration
		observed, pushed  int
		rings             []*timeseries.Ring
	)
	for i := range in.comps {
		for k := range metric.Kinds {
			if observed >= replaySamples {
				break
			}
			vals := make([]float64, 0, in.backlogEnd-in.backlogStart+1)
			for t := in.backlogStart; t <= in.backlogEnd; t++ {
				vals = append(vals, in.value(i, k, t))
			}
			p := markov.New(cfg.MarkovBins, cfg.MarkovDecay)
			t0 := time.Now()
			for _, v := range vals {
				p.Observe(v)
			}
			observe += time.Since(t0)
			observed += len(vals)
			if len(rings) < replayRings {
				r := timeseries.NewRing(cfg.RingCapacity)
				t0 := time.Now()
				for j, v := range vals {
					r.Push(in.backlogStart+int64(j), v)
				}
				ringPush += time.Since(t0)
				pushed += len(vals)
				rings = append(rings, r)
			}
		}
	}
	st.observeNS = float64(observe.Nanoseconds()) / float64(max(1, observed))
	st.ringPushNS = float64(ringPush.Nanoseconds()) / float64(max(1, pushed))

	var dst timeseries.Series
	t0 = time.Now()
	for _, r := range rings {
		r.SeriesInto(&dst)
	}
	st.materializeUS = us(time.Since(t0)) / float64(max(1, len(rings)))
	return st
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
