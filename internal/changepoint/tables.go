package changepoint

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Threshold tables: the precomputed alternative to per-query bootstrapping.
//
// The bootstrap estimates, for every analyzed segment, the null distribution
// of the CUSUM range by reshuffling the segment's own values a few hundred
// times — ~200 × O(n) work per segment, per metric, per query, and by far
// the dominant cost of the selection kernel. But the statistic it shuffles
// for is a pivot: under the exchangeable null the CUSUM range scales
// linearly with the segment's standard deviation and grows like √n, so the
// normalized statistic
//
//	x = (maxS − minS) / (σ̂ · √n)
//
// has a null distribution that depends only on the segment length. That
// distribution is simulated once per (length, resamples) pair from standard
// normal sequences with a fixed seed, sorted, and cached process-wide;
// afterwards every detection query is a closed-form normalization plus one
// comparison — no RNG, no resampling, identical across goroutines,
// processes, and query times. This is what makes streaming selection
// possible at all: the legacy bootstrap reseeded per (component, metric,
// tv), so no per-query work could ever be hoisted to ingest time.
//
// The resample count stays in the key so a deadline-reduced tier (a lighter
// table) and the full tier never share quantiles, and so confidence retains
// the same 1/k granularity the bootstrap had.
//
// Tables live in one flat slot array per resample count, indexed by segment
// length: a lookup is two atomic loads and an index. WarmTables builds the
// slots a configuration will read on a background goroutine, so a fresh
// process does not pay for them inside its first detection.

// tableSet holds the null tables of one resample count k. Slot n holds the
// sorted table for segments of n samples once it has been built; a nil slot
// is built on first use. Entries are immutable once stored.
type tableSet struct {
	k     int
	slots atomic.Pointer[[]atomic.Pointer[[]float64]]
}

var (
	// tablesMu serializes table-set registration, slot growth, slot
	// stores and the warm-up queue. Lookups never take it.
	tablesMu  sync.Mutex
	tableSets atomic.Pointer[[]*tableSet] // one per resample count

	warmQueue   []warmJob            // pending warm-ups, guarded by tablesMu
	warmSeen    = map[warmJob]bool{} // every warm-up ever queued
	warmRunning bool                 // a warm-up goroutine is draining warmQueue
)

// nullTableSeed mixes the key into a fixed, documented seed. Changing it
// changes every detection verdict at the margin — treat it like a golden.
func nullTableSeed(n, k int) int64 {
	return 0x5eed<<32 ^ int64(n)*1_000_003 ^ int64(k)*7_368_787
}

// tablesFor returns the table set of resample count k, registering it on
// first use.
func tablesFor(k int) *tableSet {
	if sets := tableSets.Load(); sets != nil {
		for _, ts := range *sets {
			if ts.k == k {
				return ts
			}
		}
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	var grown []*tableSet
	if sets := tableSets.Load(); sets != nil {
		for _, ts := range *sets {
			if ts.k == k {
				return ts
			}
		}
		grown = append(grown, *sets...)
	}
	ts := &tableSet{k: k}
	grown = append(grown, ts)
	tableSets.Store(&grown)
	return ts
}

// table returns the sorted null distribution of the normalized CUSUM range
// for segments of length n, building it on first use. Cost is O(k·n) once
// per slot (~50 µs at the default n≈120, k=200), then two atomic loads.
func (ts *tableSet) table(n int) []float64 {
	if slots := ts.slots.Load(); slots != nil && n < len(*slots) {
		if tbl := (*slots)[n].Load(); tbl != nil {
			return *tbl
		}
	}
	return ts.store(n, buildNullTable(n, ts.k))
}

// store publishes tbl in slot n unless a concurrent builder got there
// first, and returns the slot's table. Growing the slot array copies the
// published entries under the lock, so no store is lost to a resize.
func (ts *tableSet) store(n int, tbl []float64) []float64 {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	slots := ts.slots.Load()
	if slots == nil || n >= len(*slots) {
		size := 2 * n
		if size < 128 {
			size = 128
		}
		grown := make([]atomic.Pointer[[]float64], size)
		if slots != nil {
			for i := range *slots {
				grown[i].Store((*slots)[i].Load())
			}
		}
		slots = &grown
		ts.slots.Store(slots)
	}
	if have := (*slots)[n].Load(); have != nil {
		return *have
	}
	(*slots)[n].Store(&tbl)
	return tbl
}

// buildNullTable simulates the null distribution for segments of length n
// from k fixed-seed standard normal sequences and sorts it.
func buildNullTable(n, k int) []float64 {
	rng := rand.New(rand.NewSource(nullTableSeed(n, k)))
	samples := make([]float64, k)
	vals := make([]float64, n)
	scale := math.Sqrt(float64(n))
	for b := range samples {
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		if _, sdiff, sd := cusumPeakStd(vals); sd > 0 {
			samples[b] = sdiff / (sd * scale)
		}
	}
	sort.Float64s(samples)
	return samples
}

// criticalCount returns b, the smallest number of null samples that must
// fall below a segment's statistic for its confidence b/k to reach conf.
// With conf in (0, 1] it lies in [1, k]; it is found with the same float
// division the confidence is reported with, so the test is exact.
func criticalCount(k int, conf float64) int {
	fk := float64(k)
	b := int(math.Ceil(conf * fk))
	if b < 1 {
		b = 1
	}
	if b > k {
		b = k
	}
	for b > 1 && float64(b-1)/fk >= conf {
		b--
	}
	for b < k && float64(b)/fk < conf {
		b++
	}
	return b
}

// normalizedRange is the pivot x = sdiff / (σ̂·√n) ranked against the null
// tables.
func normalizedRange(n int, sdiff, sd float64) float64 {
	return sdiff / (sd * math.Sqrt(float64(n)))
}

// tableConfidence is the table-driven counterpart of bootstrapConfidence:
// the fraction of null samples whose normalized CUSUM range falls below the
// observed one, for a segment of n samples with CUSUM range sdiff and
// population standard deviation sd. Degenerate segments (zero range or zero
// variance) report zero confidence, matching the bootstrap's observed==0
// short-circuit.
func tableConfidence(n int, sdiff, sd float64, k int) float64 {
	if sdiff == 0 || sd == 0 {
		return 0
	}
	tbl := tablesFor(k).table(n)
	below := sort.SearchFloat64s(tbl, normalizedRange(n, sdiff, sd)) // entries strictly below x
	return float64(below) / float64(len(tbl))
}

// warmJob is one queued warm-up: every segment length up to maxN at
// resample count k.
type warmJob struct{ maxN, k int }

// WarmTables builds, off the caller's path, every threshold table that a
// table-mode detection (Config.Thresholds = k) over windows of up to maxN
// samples can read: one per segment length from the smallest MinSegment up
// to maxN. The tables and their bits are exactly those a detection would
// build on first use; warming only moves the work to process start. Each
// (maxN, k) is queued once per process, and one goroutine at a time drains
// the queue, exiting when it is empty.
func WarmTables(maxN, k int) {
	if maxN < 3 || k <= 0 {
		return
	}
	job := warmJob{maxN, k}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if warmSeen[job] {
		return
	}
	warmSeen[job] = true
	warmQueue = append(warmQueue, job)
	if !warmRunning {
		warmRunning = true
		go drainWarmQueue()
	}
}

// drainWarmQueue builds the queued warm-ups in order, then exits.
func drainWarmQueue() {
	for {
		tablesMu.Lock()
		if len(warmQueue) == 0 {
			warmRunning = false
			tablesMu.Unlock()
			return
		}
		job := warmQueue[0]
		warmQueue = warmQueue[1:]
		tablesMu.Unlock()
		ts := tablesFor(job.k)
		for n := 3; n <= job.maxN; n++ {
			ts.table(n)
		}
	}
}
