package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// ratchetFile is what the ratchet reads out of a benchmark file: one ns
// figure per shape, and the unit it is printed with. Two file shapes are
// understood, told apart by their JSON: a BENCH_scale.json document (an
// object whose "sched_tick" rows carry ns_per_released_job) and a
// BENCH_reconfig.json row list (an array whose rows carry call_avg_ns).
// Extra fields are ignored.
type ratchetFile struct {
	unit string
	ns   map[string]float64
}

// loadRatchet reads the ratcheted rows of a benchmark file, keyed by shape
// name.
func loadRatchet(path string) (ratchetFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ratchetFile{}, err
	}
	var reconfig []struct {
		Name      string  `json:"name"`
		CallAvgNS float64 `json:"call_avg_ns"`
	}
	var scale struct {
		SchedTick []struct {
			Name             string  `json:"name"`
			NsPerReleasedJob float64 `json:"ns_per_released_job"`
		} `json:"sched_tick"`
	}
	f := ratchetFile{ns: map[string]float64{}}
	if json.Unmarshal(data, &reconfig) == nil {
		f.unit = "ns/reconfigure-call"
		for _, r := range reconfig {
			f.ns[r.Name] = r.CallAvgNS
		}
	} else if err := json.Unmarshal(data, &scale); err == nil {
		f.unit = "ns/released-job"
		for _, r := range scale.SchedTick {
			f.ns[r.Name] = r.NsPerReleasedJob
		}
	} else {
		return ratchetFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.ns) == 0 {
		return ratchetFile{}, fmt.Errorf("%s: no \"sched_tick\" or reconfiguration rows", path)
	}
	return f, nil
}

// ratchetMain is the CI perf ratchet: compare the freshly benchmarked figure
// of every shape in curPath — ns-per-released-job of the sched_tick shapes,
// or the average Reconfigure call of the reconfiguration rows — against the
// committed baseline in basePath and fail on a regression beyond tol
// (fractional, e.g. 0.15 = 15%). Shapes present in the baseline must still
// exist in the current run — dropping a shape would silently un-ratchet it —
// while new shapes pass unchecked (their first committed run becomes the
// baseline). Improvements are reported so maintainers know when to commit a
// tighter baseline file; 0 = within tolerance.
func ratchetMain(basePath, curPath string, tol float64, quiet bool) int {
	base, err := loadRatchet(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yasmin-stress: ratchet baseline: %v\n", err)
		return 2
	}
	cur, err := loadRatchet(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yasmin-stress: ratchet current: %v\n", err)
		return 2
	}
	if base.unit != cur.unit {
		fmt.Fprintf(os.Stderr, "yasmin-stress: ratchet: baseline %s holds %s rows, %s holds %s rows\n",
			basePath, base.unit, curPath, cur.unit)
		return 2
	}
	names := make([]string, 0, len(base.ns))
	for name := range base.ns { //yasmin:orderinvariant sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	rc := 0
	for _, name := range names {
		b := base.ns[name]
		c, ok := cur.ns[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "yasmin-stress: ratchet: shape %s in baseline but missing from %s\n", name, curPath)
			rc = 1
			continue
		}
		delta := (c - b) / b
		line := fmt.Sprintf("ratchet %-28s %9.0f -> %9.0f %s (%+.1f%%, tolerance %.0f%%)",
			name, b, c, base.unit, delta*100, tol*100)
		if delta > tol {
			fmt.Fprintf(os.Stderr, "yasmin-stress: %s: REGRESSION\n", line)
			rc = 1
			continue
		}
		if !quiet {
			fmt.Println(line)
		}
	}
	if !quiet {
		fmt.Printf("ratchet: %d shapes, %s\n", len(names), map[bool]string{true: "PASS", false: "FAIL"}[rc == 0])
	}
	return rc
}
