package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fchain"
	"fchain/internal/apps"
	"fchain/internal/cloudsim"
	"fchain/internal/core"
	"fchain/internal/depgraph"
	"fchain/internal/metric"
	"fchain/internal/timeseries"
	"fchain/internal/workload"
	"fchain/scenario"
)

// violation is one SLO violation the load generator sends, with the fault's
// ground truth at that moment. Violations of one app are at least 30 s apart,
// so each falls in a fresh verdict-cache bucket and is a full localization.
type violation struct {
	TV int64
	// App is the reporting application; empty means the workload's name.
	App   string
	Truth []string
}

// inputs is everything a workload feeds the cluster, generated up front from
// the workload seed. The program under test only ever sees these samples,
// the dependency graph and the violation times.
type inputs struct {
	workload string
	cfg      core.Config
	comps    []string
	// series[i][k] is component i's recorded history of metric.Kinds[k].
	series [][metric.NumKinds]*timeseries.Series
	// order is the component order samples are delivered in: backlog
	// series by series, live ticks component by component. Nil is the
	// sorted order.
	order []int
	deps  *depgraph.Graph

	// slaves is the fleet size; sharded places components with the master's
	// ring (warm standby and replication on) instead of fixed slices.
	slaves  int
	sharded bool

	// backlogStart and backlogEnd bound the ticks fed per series during
	// set-up. liveEnd > 0 marks a live span (backlogEnd, liveEnd] fed
	// time-major before any violation; each violation's live slice is fed
	// just before it is sent.
	backlogStart, backlogEnd int64
	liveEnd                  int64
	violations               []violation

	// skippedEpisodes counts injected fault episodes whose SLO never fired.
	skippedEpisodes int
	genSim, genDeps time.Duration
	// note describes the generated scenario for the human-readable report.
	note string
}

// value returns component i's metric k at tick t.
func (in *inputs) value(i, k int, t int64) float64 {
	s := in.series[i][k]
	return s.At(int(t - s.Start()))
}

// samples counts the samples fed for ticks in (from, to].
func (in *inputs) samples(from, to int64) int {
	return int(to-from) * len(in.comps) * metric.NumKinds
}

// digest is a sha256 over every sample the run feeds (in feed order per
// series), the dependency graph and the violation schedule with its ground
// truth; the same seed must reproduce it bit for bit.
func (in *inputs) digest() string {
	h := sha256.New()
	end := in.feedEnd()
	var buf [8]byte
	for _, i := range in.feedOrder() {
		h.Write([]byte(in.comps[i]))
		for k := range metric.Kinds {
			for t := in.backlogStart; t <= end; t++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(in.value(i, k, t)))
				h.Write(buf[:])
			}
		}
	}
	h.Write([]byte(in.deps.String()))
	for _, v := range in.violations {
		fmt.Fprintf(h, "|%s@%d:%v", v.App, v.TV, v.Truth)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// feedOrder returns the component delivery order.
func (in *inputs) feedOrder() []int {
	if in.order != nil {
		return in.order
	}
	order := make([]int, len(in.comps))
	for i := range order {
		order[i] = i
	}
	return order
}

// feedEnd is the last tick the run ever feeds.
func (in *inputs) feedEnd() int64 {
	end := in.backlogEnd
	if in.liveEnd > end {
		end = in.liveEnd
	}
	if n := len(in.violations); n > 0 && in.violations[n-1].TV > end {
		end = in.violations[n-1].TV
	}
	return end
}

// collect copies a finished simulation's per-metric histories.
func collect(in *inputs, sys *scenario.System) error {
	in.comps = sys.Components()
	in.series = make([][metric.NumKinds]*timeseries.Series, len(in.comps))
	for i, comp := range in.comps {
		for k, kind := range metric.Kinds {
			s, err := sys.Series(comp, kind)
			if err != nil {
				return err
			}
			in.series[i][k] = s
		}
	}
	return nil
}

// Mesh workload shapes. The topology and its traffic day are part of the
// workload's definition: selection cost on a mesh swings by 2.5x between
// traffic realizations, so a seed-drawn day would swamp any change under
// test. The seed draws the fault's targets and the dependency capture.
const (
	meshTraffic   = 7
	meshSpec      = "n=400,fanout=3,depth=5,seed=7"
	meshTemplate  = "slow-leak"
	fleetSpec     = "n=1000,fanout=3,depth=5,seed=7"
	fleetTemplate = "retry-storm"
	// meshInject lands after one full 1800 s diurnal period, as the
	// accuracy matrix does.
	meshInject = 2000
	// violationGap keeps every violation in a fresh verdict-cache bucket.
	violationGap = 30
	// meshLiveSec is the live span fed at full speed before the first
	// violation; ingest is measured there, apart from verdict work.
	meshLiveSec = 300
	// fleetFaultDraw fixes the fleet's fault targets: a verdict's cost at
	// 1000 components swings 8x with which components the retry storm hits,
	// and the fleet exists to measure the write path. Its seed draws the
	// order collectors deliver each tick's samples in, and the dependency
	// capture.
	fleetFaultDraw = 7
	// fleetBacklog is the history a fleet slave drains at start-up: a fifth
	// of the history ring, so set-up stays short at 1000 components.
	fleetBacklog = 300
	// meshDepTrace is the dependency capture the accuracy matrix uses at
	// mesh scale.
	meshDepTrace = 2400
)

// genMesh builds the mesh-400 inputs: backlog up to meshLiveSec before the
// first SLO violation, a live span up to it, then n violations 30 simulated
// seconds apart while the leak persists.
func genMesh(spec string, seed int64, n int) (*inputs, error) {
	in := &inputs{workload: "mesh-400", slaves: 4}
	t0 := time.Now()
	m, sys, err := scenario.Mesh(spec, meshTraffic)
	if err != nil {
		return nil, err
	}
	f, err := scenario.MeshFault(meshTemplate, meshInject, m, seed)
	if err != nil {
		return nil, err
	}
	if err := sys.Inject(f); err != nil {
		return nil, err
	}
	// Slow leaks take minutes to breach the SLO; the template declares its
	// detection window.
	sys.RunUntil(meshInject + 700)
	tv0, ok := sys.FirstViolation(meshInject, 8)
	if !ok {
		return nil, fmt.Errorf("mesh-400 seed %d: the SLO never fired after injecting %s", seed, meshTemplate)
	}
	last := tv0 + int64(n-1)*violationGap
	sys.RunUntil(last + 1)
	if err := collect(in, sys); err != nil {
		return nil, err
	}
	in.genSim = time.Since(t0)

	t0 = time.Now()
	in.deps = fchain.DiscoverDependencies(sys.DependencyTrace(meshDepTrace, seed), fchain.DiscoverConfig{})
	in.genDeps = time.Since(t0)

	in.cfg = fchain.MeshConfig()
	in.cfg.LookBack = scenario.MeshFaultLookBack(meshTemplate)
	in.backlogEnd = tv0 - meshLiveSec
	in.liveEnd = tv0
	for i := 0; i < n; i++ {
		in.violations = append(in.violations, violation{TV: tv0 + int64(i)*violationGap, Truth: sortedCopy(f.Targets())})
	}
	in.note = fmt.Sprintf("%s %s into %v at t=%d, first violation t=%d", m, f.Name(), f.Targets(), meshInject, tv0)
	return in, nil
}

// genFleet builds the fleet-1k-standby inputs: a backlog, then a live span
// of liveSec seconds fed time-major up to the SLO's alarm, then n reports of
// that alarm, each from its own app so that every one is a full
// localization over the same samples.
func genFleet(spec string, seed int64, liveSec, n int) (*inputs, error) {
	in := &inputs{workload: "fleet-1k-standby", slaves: 4, sharded: true}
	t0 := time.Now()
	m, sys, err := scenario.Mesh(spec, meshTraffic)
	if err != nil {
		return nil, err
	}
	f, err := scenario.MeshFault(fleetTemplate, meshInject, m, fleetFaultDraw)
	if err != nil {
		return nil, err
	}
	if err := sys.Inject(f); err != nil {
		return nil, err
	}
	sys.RunUntil(meshInject + 400)
	tv, ok := sys.FirstViolation(meshInject, 8)
	if !ok {
		return nil, fmt.Errorf("fleet-1k-standby seed %d: the SLO never fired after injecting %s", seed, fleetTemplate)
	}
	in.liveEnd = tv
	in.backlogEnd = tv - int64(liveSec)
	in.backlogStart = in.backlogEnd - fleetBacklog + 1
	if err := collect(in, sys); err != nil {
		return nil, err
	}
	in.order = rand.New(rand.NewSource(seed)).Perm(len(in.comps))
	in.genSim = time.Since(t0)

	t0 = time.Now()
	in.deps = fchain.DiscoverDependencies(sys.DependencyTrace(meshDepTrace, seed), fchain.DiscoverConfig{})
	in.genDeps = time.Since(t0)

	in.cfg = fchain.MeshConfig()
	if lb := scenario.MeshFaultLookBack(fleetTemplate); lb > 0 {
		in.cfg.LookBack = lb
	}
	for i := 0; i < n; i++ {
		in.violations = append(in.violations, violation{TV: tv, App: fmt.Sprintf("%s#%d", in.workload, i), Truth: sortedCopy(f.Targets())})
	}
	in.note = fmt.Sprintf("%s %s into %v at t=%d, violation t=%d, backlog [%d,%d], live span (%d,%d]",
		m, f.Name(), f.Targets(), meshInject, tv, in.backlogStart, in.backlogEnd, in.backlogEnd, in.liveEnd)
	return in, nil
}

// episode bounds a paper fault to [start, end): the fault applies only while
// active, so the overlay faults (hogs, bottlenecks) recover when it ends.
type episode struct {
	cloudsim.Fault
	end int64
}

// Apply implements cloudsim.Fault.
func (e episode) Apply(t int64, c *cloudsim.Comp) {
	if t < e.end {
		e.Fault.Apply(t, c)
	}
}

// RUBiS timeline shape: a fault-free warm-up, then back-to-back episodes of
// one active fault followed by recovery.
const (
	rubisWarmup    = 1500
	rubisActive    = 120
	rubisPeriod    = 240
	rubisDepTrace  = 600
	rubisSustain   = 8
	rubisMaxPerEpi = 3
)

// rubisFaults are the recovering paper faults rotated over the tiers.
var rubisFaults = []string{"cpuhog", "nethog", "diskhog", "bottleneck"}

func rubisFault(name string, start int64, target string, rng *rand.Rand) cloudsim.Fault {
	switch name {
	case "cpuhog":
		return cloudsim.NewCPUHog(start, 1.7+0.2*rng.Float64(), target)
	case "nethog":
		return cloudsim.NewNetHog(start, 98.5, target)
	case "diskhog":
		return cloudsim.NewDiskHog(start, 59.4, 30, target)
	default:
		return cloudsim.NewBottleneck(start, 0.1, target)
	}
}

// genRUBiS builds the rubis-wire inputs: the paper's four-tier RUBiS on one
// long timeline of recovering fault episodes, until n real SLO violations
// (each at least 30 s after the previous, within its episode's look-back
// reach) have been collected.
func genRUBiS(seed int64, n int) (*inputs, error) {
	in := &inputs{workload: "rubis-wire", slaves: 4}
	t0 := time.Now()
	// One episode yields at most rubisMaxPerEpi violations; size the
	// trace so even a run where half the episodes never fire fits.
	maxEpisodes := 2*(n+rubisMaxPerEpi-1)/rubisMaxPerEpi + 16
	horizon := rubisWarmup + maxEpisodes*rubisPeriod + rubisPeriod
	spec := apps.RUBiS(seed)
	profile := workload.NASA()
	profile.Base = 80
	spec.Trace = workload.NewSynthetic(profile, horizon, seed)
	sys, err := scenario.New(spec, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	tiers := []string{apps.Web, apps.App1, apps.App2, apps.DB}
	cfg := fchain.DefaultConfig()
	var last int64 = -violationGap
	e := 0
	for ; len(in.violations) < n; e++ {
		if e >= maxEpisodes {
			return nil, fmt.Errorf("rubis-wire seed %d: only %d of %d violations in %d episodes", seed, len(in.violations), n, e)
		}
		start := int64(rubisWarmup + e*rubisPeriod)
		name := rubisFaults[e%len(rubisFaults)]
		target := tiers[(e/len(rubisFaults))%len(tiers)]
		if err := sys.Inject(episode{rubisFault(name, start, target, rng), start + rubisActive}); err != nil {
			return nil, err
		}
		sys.RunUntil(start + rubisPeriod)
		lat := sys.LatencySeries()
		got := 0
		// Later violations of the same episode must keep the onset inside
		// the look-back window.
		for at := start; got < rubisMaxPerEpi; {
			sustain := 1
			if got == 0 {
				sustain = rubisSustain
			}
			tv, ok := firstViolation(lat, spec.SLO.Threshold, at, start+rubisActive, sustain)
			if !ok || tv > start+int64(cfg.LookBack)-int64(cfg.BurstWindow) {
				break
			}
			if tv-last >= violationGap {
				in.violations = append(in.violations, violation{TV: tv, Truth: []string{target}})
				last = tv
				got++
			}
			at = tv + violationGap
		}
		if got == 0 {
			in.skippedEpisodes++
		}
		if len(in.violations) > n {
			in.violations = in.violations[:n]
		}
	}
	if err := collect(in, sys); err != nil {
		return nil, err
	}
	in.genSim = time.Since(t0)

	t0 = time.Now()
	in.deps = fchain.DiscoverDependencies(sys.DependencyTrace(rubisDepTrace, seed), fchain.DiscoverConfig{})
	in.genDeps = time.Since(t0)

	in.cfg = cfg
	// Set-up feeds the warm-up history; episodes arrive live.
	in.backlogEnd = rubisWarmup - 1
	in.note = fmt.Sprintf("rubis %d violations over %d episodes (%d never fired), deps %s",
		len(in.violations), e, in.skippedEpisodes, in.deps)
	return in, nil
}

// firstViolation is Sim.FirstViolation for a latency SLO, bounded to
// [from, to): the tick at which latency has exceeded the threshold for
// sustain consecutive ticks. The simulator's own search rescans the whole
// history on every call, which is quadratic over a long timeline.
func firstViolation(lat *timeseries.Series, threshold float64, from, to int64, sustain int) (int64, bool) {
	run := 0
	for t := from; t < to; t++ {
		v, ok := lat.ValueAt(t)
		if !ok {
			break
		}
		if v <= threshold {
			run = 0
			continue
		}
		if run++; run >= sustain {
			return t, true
		}
	}
	return 0, false
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
