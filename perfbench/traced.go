package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"

	"fchain"
	"fchain/internal/core"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// heapSampler tracks the peak heap while a traced run executes.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// feedLocalizer feeds the in-process reference localizer the same samples
// in the same order as the fleet: series-major up to the backlog end, then
// time-major.
func feedLocalizer(loc *fchain.Localizer, in *inputs, from, to int64) error {
	order := in.feedOrder()
	if from < 0 {
		for _, i := range order {
			comp := in.comps[i]
			for k, kind := range metric.Kinds {
				for t := in.backlogStart; t <= to; t++ {
					if err := loc.Ingest(comp, t, kind, in.value(i, k, t)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for t := from + 1; t <= to; t++ {
		for _, i := range order {
			comp := in.comps[i]
			for k, kind := range metric.Kinds {
				if err := loc.Ingest(comp, t, kind, in.value(i, k, t)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tracedLayers collects the per-violation layer figures of a traced run.
type tracedLayers struct {
	wire, direct, inTraced, inPlain, overhead []float64 // ms
	analyzeSum, analyzeMax                    []float64 // ms
	encode, decode, diagnose, reportBytes     []float64 // µs, µs, µs, bytes
	spansPerVerdict                           []float64
	path                                      map[string][]float64 // ms per layer on the blocking path
	work                                      map[string][]float64 // ms of self time per layer, in-process trace
	taskNS                                    []float64
	tasks, selected, candidates               int
}

// runTraced runs the workload once with every layer instrumented from the
// benchmark's side, checks every wire verdict against an in-process
// Localizer fed the same samples, and reports the per-layer metrics.
func runTraced(o options, in *inputs) (result, error) {
	// The in-process reference localizer doubles the monitored state; a
	// soft limit keeps the 1000-component fleet's peak heap near 2 GiB.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(2 << 30))
	ws := taskWindows(in)
	first := firstDetect(in.cfg, ws)
	sampler := startHeapSampler()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	heap0 := liveHeap()
	f, err := setup(in, o.outDir, true)
	if err != nil {
		sampler.finish()
		return result{}, err
	}
	defer f.close()
	monitorKB := (float64(liveHeap()) - float64(heap0)) / 1024 / float64(len(in.comps))

	loc := fchain.NewLocalizer(in.cfg, in.comps)
	if err := feedLocalizer(loc, in, -1, in.backlogEnd); err != nil {
		return result{}, err
	}
	rec := newRecorder()
	L := tracedLayers{path: map[string][]float64{}, work: map[string][]float64{}}
	var (
		liveSamples int
		liveDur     time.Duration
		catchup     time.Duration
		problems    []string
		erred       int
		failed      int
		sc          score
	)
	if in.liveEnd > 0 {
		id := rec.begin(-1, -1, "feed")
		t0 := time.Now()
		n, err := f.feedLive(in.liveEnd)
		if err != nil {
			return result{}, err
		}
		liveDur = time.Since(t0)
		if err := f.caughtUp(2 * time.Minute); err != nil {
			return result{}, err
		}
		catchup = time.Since(t0) - liveDur
		rec.end(id)
		liveSamples = n
		if err := feedLocalizer(loc, in, in.backlogEnd, in.liveEnd); err != nil {
			return result{}, err
		}
	}
	for i, v := range in.violations {
		from := f.fedTo
		id := rec.begin(-1, i, "feed")
		t0 := time.Now()
		n, err := f.feedLive(v.TV)
		if err != nil {
			return result{}, err
		}
		liveDur += time.Since(t0)
		liveSamples += n
		rec.end(id)
		if err := feedLocalizer(loc, in, from, v.TV); err != nil {
			return result{}, err
		}

		// Alternate the wire path (service intake) with a direct
		// Master.Localize, so intake cost is the difference of medians.
		var out outcome
		var mtr *obs.Trace
		if i%2 == 0 {
			root := rec.begin(-1, i, "verdict")
			out, err = wireVerdict(f, v)
			rec.end(root)
			if err != nil {
				return result{}, err
			}
			L.wire = append(L.wire, ms(out.latency))
			if tr := f.sink.Traces.Last(); tr != nil && tr.TV == v.TV {
				mtr = tr
			}
			graftVerdict(rec, f, root, mtr, v.TV)
			spans, kids := rec.spans, children(rec.spans)
			acc := map[string]int64{}
			blockingPath(spans, kids, root, acc)
			for name, ns := range acc {
				L.path[name] = append(L.path[name], float64(ns)/1e6)
			}
			L.spansPerVerdict = append(L.spansPerVerdict, float64(countSubtree(kids, root)))
		} else {
			root := rec.begin(-1, i, "localize.direct")
			t0 := time.Now()
			res, err := f.master.Localize(context.Background(), v.TV)
			out = outcome{tv: v.TV, latency: time.Since(t0)}
			rec.end(root)
			if err != nil {
				out.erred = true
			} else {
				out.degraded = res.Degraded || res.Truncated
				out.verdict = res.Diagnosis.String()
				out.culprits = res.Diagnosis.CulpritNames()
			}
			L.direct = append(L.direct, ms(out.latency))
			graftVerdict(rec, f, root, res.Trace, v.TV)
		}
		if err := checkCulprits(in, out); err != nil {
			return result{}, err
		}
		if out.erred {
			erred++
		} else {
			sc.add(v.Truth, out.culprits)
		}
		if out.failed() {
			failed++
		}

		// The in-process reference at the same tv, traced and untraced on
		// alternate violations.
		var want fchain.Diagnosis
		if i%2 == 0 {
			ref := rec.begin(-1, i, "reference")
			t0 := time.Now()
			d, stats, tr := loc.LocalizeTraced(v.TV, in.deps)
			L.inTraced = append(L.inTraced, ms(time.Since(t0)))
			rec.end(ref)
			want = d
			L.tasks += stats.Tasks
			base := len(rec.spans)
			rec.graftCentred(ref, tr)
			kids := children(rec.spans)
			acc := map[string]int64{}
			selfByLayer(rec.spans, kids, ref, acc)
			for name, ns := range acc {
				L.work[name] = append(L.work[name], float64(ns)/1e6)
			}
			for _, s := range rec.spans[base:] {
				if layer(s.Name) == "select" {
					L.taskNS = append(L.taskNS, float64(s.dur()))
				}
			}
			sel, cand := selectionYield(tr)
			L.selected += sel
			L.candidates += cand
		} else {
			t0 := time.Now()
			d, _ := loc.LocalizeStats(v.TV, in.deps)
			plain := ms(time.Since(t0))
			L.inPlain = append(L.inPlain, plain)
			L.overhead = append(L.overhead, ms(out.latency)-plain)
			want = d
		}
		if !out.failed() && out.verdict != want.String() {
			problems = append(problems, fmt.Sprintf("tv=%d: cluster verdict %q, in-process Localizer %q", v.TV, out.verdict, want.String()))
		}

		// Per-slave analysis, and the report JSON and diagnosis the master
		// runs over what the slaves return.
		var reports []core.ComponentReport
		var sum, worst float64
		for _, sl := range f.slaves {
			t0 := time.Now()
			reps := sl.Analyze(v.TV)
			d := ms(time.Since(t0))
			sum += d
			worst = max(worst, d)
			reports = append(reports, reps...)
		}
		L.analyzeSum = append(L.analyzeSum, sum)
		L.analyzeMax = append(L.analyzeMax, worst)
		t0 = time.Now()
		raw, err := json.Marshal(reports)
		L.encode = append(L.encode, us(time.Since(t0)))
		if err != nil {
			return result{}, err
		}
		L.reportBytes = append(L.reportBytes, float64(len(raw)))
		var back []core.ComponentReport
		t0 = time.Now()
		if err := json.Unmarshal(raw, &back); err != nil {
			return result{}, err
		}
		L.decode = append(L.decode, us(time.Since(t0)))
		t0 = time.Now()
		fchain.Diagnose(back, len(in.comps), in.deps, in.cfg)
		L.diagnose = append(L.diagnose, us(time.Since(t0)))
	}

	ks := replayKernels(in.cfg, ws)
	mdl := replayModels(in)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	peak := sampler.finish()
	if err := rec.write(filepath.Join(o.outDir, "spans-"+in.workload+".jsonl")); err != nil {
		return result{}, err
	}

	fed := in.samples(in.backlogStart-1, in.feedEnd())
	replBytes := f.counter("fchain_repl_bytes_total")
	m := map[string]metricValue{
		"ingest.push_ns":                {mdl.pushNS, "ns"},
		"markov.observe_ns":             {mdl.observeNS, "ns"},
		"timeseries.ring_push_ns":       {mdl.ringPushNS, "ns"},
		"timeseries.materialize_us":     {mdl.materializeUS, "us"},
		"core.ingest_ns":                {float64(liveDur.Nanoseconds()) / float64(max(1, liveSamples)), "ns"},
		"core.monitor_kb":               {monitorKB, "KB"},
		"core.analyze_ms_sum":           {median(L.analyzeSum), "ms"},
		"core.analyze_ms_max":           {median(L.analyzeMax), "ms"},
		"core.task_p50_us":              {median(L.taskNS) / 1e3, "us"},
		"core.task_p99_us":              {percentileOf(L.taskNS, 99) / 1e3, "us"},
		"core.task_max_ms":              {maxOf(L.taskNS) / 1e6, "ms"},
		"core.tasks_per_verdict":        {float64(L.tasks) / float64(max(1, len(L.inTraced))), "count"},
		"core.selected_per_candidate":   {ratio(L.selected, L.candidates), "ratio"},
		"core.diagnose_us":              {median(L.diagnose), "us"},
		"changepoint.detect_us":         {ks.detectUS, "us"},
		"changepoint.points_per_window": {ks.pointsPerWindow, "count"},
		"changepoint.rollback_us":       {ks.rollbackUS, "us"},
		"changepoint.first_detect_ms":   {ms(first), "ms"},
		"fftpkg.expected_error_us":      {ks.expectedErrUS, "us"},
		"cluster.overhead_ms":           {median(L.overhead), "ms"},
		"cluster.report_bytes":          {median(L.reportBytes), "bytes"},
		"cluster.encode_us":             {median(L.encode), "us"},
		"cluster.decode_us":             {median(L.decode), "us"},
		"cluster.intake_us":             {(median(L.wire) - median(L.direct)) * 1e3, "us"},
		"cluster.repl_catchup_ms":       {ms(catchup), "ms"},
		"cluster.repl_bytes_per_sample": {float64(replBytes) / float64(fed), "bytes"},
		"obs.spans_per_verdict":         {median(L.spansPerVerdict), "count"},
		"obs.trace_overhead_frac":       {median(L.inTraced)/median(L.inPlain) - 1, "ratio"},
		"trace.verdict_p50_ms":          {median(L.wire), "ms"},
		"trace.detect_ms":               {median(L.work["detect"]), "ms"},
		"trace.filter_ms":               {median(L.work["filter"]), "ms"},
		"trace.rollback_ms":             {median(L.work["rollback"]), "ms"},
		"trace.select_self_ms":          {median(L.work["select"]), "ms"},
		"runtime.heap_peak_mb":          {float64(peak) / (1 << 20), "MB"},
		"runtime.gc_cpu_frac":           {ms1.GCCPUFraction, "ratio"},
		"runtime.gc_cycles":             {float64(ms1.NumGC - ms0.NumGC), "count"},
		"quality.culprit_recall":        {sc.recall(), "ratio"},
		"quality.culprit_precision":     {sc.precision(), "ratio"},
		"gen.sim_s":                     {in.genSim.Seconds(), "s"},
		"gen.deps_s":                    {in.genDeps.Seconds(), "s"},
	}
	// The per-layer medians along the blocking path should add up to the
	// traced verdict median.
	pathSum := 0.0
	for _, name := range pathLayers {
		m["trace.path."+name+"_ms"] = metricValue{median(L.path[name]), "ms"}
		pathSum += median(L.path[name])
	}
	m["trace.path_accounted_frac"] = metricValue{pathSum / median(L.wire), "ratio"}
	fmt.Printf("traced: %d violations, %d without a verdict, %d failed, recall %.3f precision %.3f, %d spans\n",
		len(in.violations), erred, failed, sc.recall(), sc.precision(), len(rec.spans))
	for _, p := range problems {
		fmt.Println("MISMATCH", p)
	}
	report(m)
	return result{Correct: len(problems) == 0, Attempted: len(in.violations), Failed: erred, Metrics: m}, nil
}

// perLayerNames lists every metric a traced run reports, in BENCHMARK.json
// order.
func perLayerNames() []string {
	names := []string{
		"ingest.push_ns", "markov.observe_ns", "timeseries.ring_push_ns", "timeseries.materialize_us",
		"core.ingest_ns", "core.monitor_kb", "core.analyze_ms_sum", "core.analyze_ms_max",
		"core.task_p50_us", "core.task_p99_us", "core.task_max_ms", "core.tasks_per_verdict",
		"core.selected_per_candidate", "core.diagnose_us",
		"changepoint.detect_us", "changepoint.points_per_window", "changepoint.rollback_us",
		"changepoint.first_detect_ms", "fftpkg.expected_error_us",
		"cluster.overhead_ms", "cluster.report_bytes", "cluster.encode_us", "cluster.decode_us",
		"cluster.intake_us", "cluster.repl_catchup_ms", "cluster.repl_bytes_per_sample",
		"obs.spans_per_verdict", "obs.trace_overhead_frac",
		"trace.verdict_p50_ms", "trace.path_accounted_frac",
	}
	for _, l := range pathLayers {
		names = append(names, "trace.path."+l+"_ms")
	}
	return append(names,
		"trace.detect_ms", "trace.filter_ms", "trace.rollback_ms", "trace.select_self_ms",
		"runtime.heap_peak_mb", "runtime.gc_cpu_frac", "runtime.gc_cycles",
		"quality.culprit_recall", "quality.culprit_precision",
		"gen.sim_s", "gen.deps_s")
}

// pathLayers are the layers a wire verdict's blocking path folds into.
var pathLayers = []string{"verdict", "localize", "fanout", "analyze", "select", "detect", "filter", "rollback", "diagnose"}

// graftVerdict hangs the master's trace of one localization under the
// benchmark's span for it. The master marks its per-slave asks only after
// collecting every answer, so the benchmark adds a fanout span from the
// localization's start to those marks and hangs each slave's analyze trace
// in it, all starting together and centred on the slowest.
func graftVerdict(rec *recorder, f *fleet, root int, mtr *obs.Trace, tv int64) {
	if mtr == nil {
		return
	}
	base := len(rec.spans)
	rec.graftCentred(root, mtr)
	loc, collected := -1, int64(-1)
	for _, s := range rec.spans[base:] {
		switch layer(s.Name) {
		case "localize":
			loc = s.ID
		case "ask":
			if collected < 0 || s.StartNS < collected {
				collected = s.StartNS
			}
		}
	}
	if loc < 0 || collected < 0 {
		return
	}
	fan := rec.add(span{Parent: loc, Violation: rec.spans[root].Violation, Name: "fanout",
		StartNS: rec.spans[loc].StartNS, EndNS: collected})
	var traces []*obs.Trace
	var slowest int64
	for _, ring := range f.slaveTraces {
		if tr := ring.Last(); tr != nil && tr.TV == tv && len(tr.Spans) > 0 {
			traces = append(traces, tr)
			lo, hi := extent(tr)
			slowest = max(slowest, hi-lo)
		}
	}
	start := rec.spans[fan].StartNS + max(0, rec.spans[fan].dur()-slowest)/2
	for _, tr := range traces {
		rec.graft(fan, tr, start)
	}
}

// selectionYield counts, over one in-process trace, the abnormal changes
// selected and the outlier candidates inside the look-back window that the
// filter examined.
func selectionYield(tr *obs.Trace) (selected, candidates int) {
	for _, s := range tr.Spans {
		switch layer(s.Name) {
		case "select":
			if v, _ := s.Attr("abnormal"); v == "true" {
				selected++
			}
		case "detect":
			if v, _ := s.Attr("candidates"); v != "" {
				candidates += 1 + strings.Count(v, ",")
			}
		}
	}
	return selected, candidates
}

func countSubtree(kids [][]int, id int) int {
	n := 1
	for _, c := range kids[id] {
		n += countSubtree(kids, c)
	}
	return n
}

func percentileOf(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sortedFloats(xs), p)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
