// Command perfbench is FChain's end-to-end benchmark: it generates a seeded
// workload, runs it against a real in-process cluster (master, slaves and the
// violation service over loopback TCP), checks every verdict against the
// fault's ground truth, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer breakdown — as one JSON object on its last line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload mesh-400 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// outDir receives the span dump and the service journal.
	outDir string
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds of load the workload is sized for")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the span dump and the service journal")
	flag.Parse()
	o.trace = trace == 1
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// report prints one human-readable line per metric, sorted by name.
func report(ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// machine describes where the run happened, for the report header.
func machine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
