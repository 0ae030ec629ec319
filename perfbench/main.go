// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload closed-loop — one driver goroutine issues intervals back to
// back, each with the workload's fixed tuple budget — checks every
// interval for correctness, and prints the metrics as the last line of
// standard output, one JSON object. See README.md for the workloads and
// metrics.
//
//	perfbench --workload hot-narrow --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a separate traced pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// maxProcs caps GOMAXPROCS: the benchmark is sized for a 2-CPU host.
const maxProcs = 2

// setupReps is how many times an untraced run builds (or deploys) its
// systems, across all sub-inputs, to report the median set-up time.
func setupReps(w *workloadDef) int {
	if w.cluster {
		return 20
	}
	return 100
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced pass reporting per-layer metrics")
	flag.Parse()
	var w *workloadDef
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	fmt.Printf("# host: GOMAXPROCS=%d NumCPU=%d %s %s/%s commit=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, envOr("PERFBENCH_COMMIT", "unknown"))
	fmt.Printf("# workload: %s keys=%d zipf=%g fluct=%g budget=%d instances=%d cycle=%d warmup=%d checked=%d sub-inputs=%d seed=%d seconds=%g trace=%d\n",
		w.name, w.keys, w.zipf, w.fluct, w.budget, w.instances, cycle, warmup, checked, subInputs, *seed, *seconds, *trace)

	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(w, *seed, *seconds)
	} else {
		res, err = untraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	printTable(res)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// printTable prints every metric by name with its unit, one per line,
// ahead of the JSON result line.
func printTable(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("# %-36s %14.6g (failed %d of %d intervals; correctness gate %s)\n", "error_rate", errRate, r.Failed, r.Attempted, passFail(r.Correct))
}

func passFail(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}
