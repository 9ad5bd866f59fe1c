package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fchain/internal/depgraph"
	"fchain/internal/timeseries"
)

// pathFilterCulprits re-derives a diagnosis' culprit set with the pairwise
// dependency filter: keep the source and concurrent culprits, then walk the
// chain and pin every component no pinned one has a depgraph.HasPath to
// (unless the graph is empty, which turns the filter off).
func pathFilterCulprits(d Diagnosis, deps *depgraph.Graph) []string {
	pinned := map[string]bool{}
	var out []string
	for _, c := range d.Culprits {
		if c.Reason != "independent" {
			pinned[c.Component] = true
			out = append(out, c.Component)
		}
	}
	for _, r := range d.Chain {
		if pinned[r.Component] || deps.Empty() {
			continue
		}
		reachable := false
		for p := range pinned {
			if deps.HasPath(p, r.Component) {
				reachable = true
				break
			}
		}
		if !reachable {
			pinned[r.Component] = true
			out = append(out, r.Component)
		}
	}
	sort.Strings(out)
	return out
}

// meshReports builds a chain of n abnormal reports with seeded onsets and a
// dependency graph split into parts disconnected parts, leaving every
// tenth component out of the graph and a few graphed nodes isolated.
func meshReports(rng *rand.Rand, n, parts int, spread int64) ([]ComponentReport, *depgraph.Graph) {
	deps := depgraph.NewGraph()
	names := make([]string, n)
	reports := make([]ComponentReport, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%03d", i)
		reports[i] = report(names[i], rng.Int63n(spread), timeseries.TrendUp)
	}
	for i := range names {
		switch {
		case i%10 == 9:
			// unknown to the graph
		case i%17 == 5:
			deps.AddNode(names[i])
		default:
			// Up to three edges to earlier components of the same part.
			for e := 0; e < 3 && i >= parts; e++ {
				j := i - parts*(1+rng.Intn(i/parts))
				if j >= 0 && j%10 != 9 && j%17 != 5 {
					deps.AddEdge(names[i], names[j], 1)
				}
			}
		}
	}
	return reports, deps
}

func TestDiagnoseDepsFilterMatchesHasPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultConfig()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		reports, deps := meshReports(rng, n, 1+rng.Intn(5), 1+rng.Int63n(300))
		for i := range reports {
			if rng.Intn(5) == 0 {
				reports[i] = normalReport(reports[i].Component)
			}
		}
		// One more monitored component than reports keeps the
		// external-factor shortcut out of the way.
		d := Diagnose(reports, n+1, deps, cfg)
		got := d.CulpritNames()
		sort.Strings(got)
		want := pathFilterCulprits(d, deps)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: culprits %v, pairwise HasPath filter %v (deps %s)", trial, got, want, deps)
		}
	}
}

// BenchmarkDiagnoseMesh400 diagnoses a 400-report propagation chain over a
// partly disconnected 400-component dependency graph: the dependency filter
// visits every unpinned component of the chain.
func BenchmarkDiagnoseMesh400(b *testing.B) {
	reports, deps := meshReports(rand.New(rand.NewSource(3)), 400, 4, 4000)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Diagnose(reports, len(reports)+1, deps, cfg)
	}
}
