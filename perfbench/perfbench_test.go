package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryWorkloadPrintsEveryMetric runs every workload at a tiny horizon,
// untraced and traced, and checks that the result line is correct and
// names exactly the metrics BENCHMARK.json lists, each with its unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	// Tiny repetitions keep the test short; the registry is restored after.
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = map[string]*workload{}
	for name, wl := range saved {
		tiny := *wl
		tiny.horizon = 20 * time.Millisecond
		workloads[name] = &tiny
	}
	for _, wl := range spec.Workloads {
		for trace, want := range map[string][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", wl.Name, "--seed", "1", "--seconds", "0.01", "--trace", trace,
				"--root", "..", "--out", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Errorf("%s trace %s: exit %d: %s", wl.Name, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace %s: last line: %v", wl.Name, trace, err)
				continue
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s printed as %+v (present %v), want unit %s", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestHeteroGateRejectsTampering feeds the hetero topic oracle a clean
// trace and tampered ones: a reordered entry, a missing entry and a
// subscriber that fell further behind than the buffer holds.
func TestHeteroGateRejectsTampering(t *testing.T) {
	feed := func(takes []uint64, published int) []string {
		f := newFIFOCheck()
		f.subscribe(0, 0)
		for i := 0; i < published; i++ {
			f.publish(0, 0)
		}
		for _, seq := range takes {
			f.take(0, 0, 0, seq)
		}
		return f.finish(2)
	}
	if errs := feed([]uint64{1, 2, 3, 4}, 5); len(errs) != 0 {
		t.Fatalf("clean trace rejected: %v", errs)
	}
	for name, takes := range map[string][]uint64{
		"reordered": {1, 3, 2, 4},
		"missing":   {1, 2, 4, 5},
		"duplicate": {1, 2, 2, 3},
		"behind":    {1},
	} {
		if errs := feed(takes, 5); len(errs) == 0 {
			t.Errorf("%s trace accepted", name)
		}
	}
}

// TestLayerOfChargesHelpersToCaller checks the profile bucketing: a leaf
// in a layer's prefix list names the layer, and a helper leaf (a clock
// read, a copy) is charged to its first caller outside the helpers.
func TestLayerOfChargesHelpersToCaller(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{modulePrefix + "core.(*timerWheel).advanceTo"}, "cpu.core.release"},
		{[]string{"runtime.nanotime", "time.Now", modulePrefix + "core.(*App).releaseDue"}, "cpu.core.release"},
		{[]string{"runtime.memmove", modulePrefix + "cluster.AppendFrame"}, "cpu.cluster"},
		{[]string{"runtime.chanrecv", modulePrefix + "rt.(*simCtx).Park"}, "cpu.go.sched"},
		{[]string{"runtime.memmove"}, "cpu.other"},
		{[]string{"main.main"}, "cpu.scenario"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
