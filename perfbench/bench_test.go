package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, wantP int
		wantV    float64
		ok       bool
	}{
		{n: 1000, wantP: 99, wantV: 990, ok: true}, // rank 990, 10 beyond
		{n: 400, wantP: 97, wantV: 388, ok: true},  // p98 → rank 392 leaves 8
		{n: 20, wantP: 50, wantV: 10, ok: true},    // rank 10, 10 beyond
		{n: 11, wantP: 9, wantV: 1, ok: true},      // only the minimum qualifies
		{n: 10, ok: false},
	} {
		p, v, ok := tailPercentile(seq(tc.n), 10)
		if ok != tc.ok || (ok && (p != tc.wantP || v != tc.wantV)) {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v ok=%v", tc.n, p, v, ok, tc.wantP, tc.wantV, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, p)
			}
		}
	}
}

func TestChunkedTail(t *testing.T) {
	// 600 verdicts in three windows of 200: a stall in the first window
	// lifts only its own p95 (1039), and the median is a clean window's.
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i % 200)
		if i < 50 {
			xs[i] += 1000
		}
	}
	if p, tail := chunkedTail(xs); p != 95 || tail != 189 {
		t.Errorf("got p%d tail %v", p, tail)
	}
	if p, tail := chunkedTail([]float64{3, 1, 2}); p != 100 || tail != 3 {
		t.Errorf("three verdicts: got p%d tail %v, want the slowest", p, tail)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// tree builds a parent [0,100) with overlapping children: two parallel
// workers' tasks and a late child that runs past the parent's end.
func tree() []span {
	return []span{
		{ID: 0, Parent: -1, Name: "analyze", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "select:cpu", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "select:mem", StartNS: 30, EndNS: 60},
		{ID: 3, Parent: 0, Name: "diagnose", StartNS: 80, EndNS: 120},
		{ID: 4, Parent: 1, Name: "detect", StartNS: 15, EndNS: 25},
		{ID: 5, Parent: 1, Name: "detect", StartNS: 20, EndNS: 35},
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := tree()
	kids := children(spans)
	// Children cover [10,60) and [80,100) once each, however they overlap.
	if got := selfTime(spans, kids[0], 0); got != 30 {
		t.Errorf("parent self = %d, want 30", got)
	}
	// Overlapping grandchildren cover [15,35).
	if got := selfTime(spans, kids[1], 1); got != 10 {
		t.Errorf("select:cpu self = %d, want 10", got)
	}
	acc := map[string]int64{}
	selfByLayer(spans, kids, 0, acc)
	want := map[string]int64{"analyze": 30, "select": 10 + 30, "detect": 10 + 15, "diagnose": 40}
	if !reflect.DeepEqual(acc, want) {
		t.Errorf("self by layer = %v, want %v", acc, want)
	}
}

func TestBlockingPathAddsUpToDuration(t *testing.T) {
	spans := tree()
	spans[3].EndNS = 95 // keep every child inside the parent
	kids := children(spans)
	acc := map[string]int64{}
	blockingPath(spans, kids, 0, acc)
	// Chain: diagnose [80,95), then select:mem [30,60); the gap [10,30)
	// belongs to select:cpu, which select:mem overtook.
	want := map[string]int64{"analyze": 100 - 15 - 30 - 20, "diagnose": 15, "select": 30 + 20}
	if !reflect.DeepEqual(acc, want) {
		t.Errorf("blocking path = %v, want %v", acc, want)
	}
	var sum int64
	for _, ns := range acc {
		sum += ns
	}
	if sum != spans[0].dur() {
		t.Errorf("blocking path sums to %d, want the span's %d", sum, spans[0].dur())
	}
}

func TestScoreCountsCulprits(t *testing.T) {
	var s score
	s.add([]string{"db"}, []string{"db", "web"})
	s.add([]string{"app1"}, nil)
	if s.recall() != 0.5 || s.precision() != 0.5 {
		t.Errorf("recall %v precision %v, want 0.5 and 0.5", s.recall(), s.precision())
	}
}

// Toy-size topologies for the smoke runs.
const (
	toyMesh  = "n=40,fanout=3,depth=4,seed=7"
	toyFleet = "n=60,fanout=3,depth=4,seed=7"
)

func toyInputs(t *testing.T, workload string, seed int64) *inputs {
	t.Helper()
	var (
		in  *inputs
		err error
	)
	switch workload {
	case "mesh-400":
		in, err = genMesh(toyMesh, seed, 3)
	case "rubis-wire":
		in, err = genRUBiS(seed, 20)
	case "fleet-1k-standby":
		in, err = genFleet(toyFleet, seed, 60, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSmokeEachWorkload runs every workload at toy size, untraced and
// traced, end to end through a real cluster.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real clusters")
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 1, seconds: 1, outDir: t.TempDir()}
			in := toyInputs(t, w, 1)
			res, verdicts, err := runUntraced(o, in, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != len(in.violations) || len(verdicts) != res.Attempted {
				t.Fatalf("untraced result %+v with %d verdicts", res, len(verdicts))
			}
			checkNames(t, res.Metrics, endToEndNames())
			res, err = runTraced(o, toyInputs(t, w, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run: cluster and in-process verdicts disagree")
			}
			checkNames(t, res.Metrics, perLayerNames())
		})
	}
}

// checkNames requires a run to report exactly the named metrics.
func checkNames(t *testing.T, got map[string]metricValue, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("run reports %d metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("run lacks %s", n)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with what the
// runs report.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), workloadNames()},
		{"end_to_end", names(spec.EndToEnd), endToEndNames()},
		{"per_layer", names(spec.PerLayer), perLayerNames()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, want %v", c.what, c.got, c.want)
		}
	}
}

// TestSeedReproducesInputsAndVerdicts pins the inputs to the seed: the same
// seed gives the same digest and the same verdicts, another seed another
// digest.
func TestSeedReproducesInputsAndVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real clusters")
	}
	o := options{workload: "rubis-wire", seconds: 1, outDir: t.TempDir()}
	a, b := toyInputs(t, "rubis-wire", 3), toyInputs(t, "rubis-wire", 3)
	if a.digest() != b.digest() {
		t.Fatal("same seed, different input digests")
	}
	if c := toyInputs(t, "rubis-wire", 4); c.digest() == a.digest() {
		t.Fatal("another seed gave the same input digest")
	}
	_, va, err := runUntraced(o, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, vb, err := runUntraced(o, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Errorf("same seed, different verdicts:\n%v\n%v", va, vb)
	}
}
