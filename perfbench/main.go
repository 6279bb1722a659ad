// Command perfbench is YASMIN's benchmark: four named workloads on the
// deterministic simulation backend, each checked for correctness, with the
// end-to-end metrics measured untraced and the per-layer metrics measured in
// a separate traced run.
//
//	go run . --workload scale10k --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a readable
// report: an environment header, every metric by name with its unit, and
// in a traced run the span table and the CPU-profile layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints the report; it returns the
// process exit code: 0 on a correct run, 1 when a correctness gate failed,
// 2 on a usage or harness error (no result printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository checkout holding scenarios/")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span and profile files of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	opts := runOpts{root: *root, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	printEnv(stdout)

	var res *result
	var err error
	if *traced == 1 {
		res, err = measureTraced(wl, opts, *out, stdout)
	} else {
		res, err = measure(wl, opts, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	res.print(stdout)
	if !res.Correct {
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", wl.name, f)
		}
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the gate verdict, the operation
// counts, the metrics of the run's kind (end-to-end or per-layer), and the
// workload-specific figures that only go into the readable report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	report   map[string]metric // printed, not part of the JSON line
	failures []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, report: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(name string, v float64, unit string) { r.report[name] = metric{v, unit} }

// fail records a failed gate; the run stays in the output and counts.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// print writes the readable metric lines, then the JSON result line last.
func (r *result) print(w io.Writer) {
	for _, m := range []map[string]metric{r.report, r.Metrics} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "metric %-32s %16.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printEnv writes the host header: what the numbers were measured on.
func printEnv(w io.Writer) {
	fmt.Fprintf(w, "# env go=%s GOMAXPROCS=%d nproc=%d sleep50us_floor=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), sleepFloor())
}

// sleepFloor is the median host time a 50µs time.Sleep actually takes —
// the timer floor that rules out the wall-clock backend on this host.
func sleepFloor() time.Duration {
	const n = 21
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d)).Round(time.Microsecond)
}

var errNoReps = errors.New("no repetition completed")
