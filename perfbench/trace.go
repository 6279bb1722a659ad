package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, kept in memory until the run ends.
type span struct {
	name       string
	start, end int64 // ns since the tracer started
	parent     int32 // index into tracer.spans, -1 for a root
	run        int32 // repetition the span belongs to
}

// spanAgg accumulates every span of one name, stored or not.
type spanAgg struct {
	count       int64
	total, kids int64 // summed duration and summed direct-child duration
}

// spanRef is an open span: begin returns it, end closes it.
type spanRef struct {
	name   string
	parent string
	idx    int32 // index into tracer.spans, -1 when not stored
	start  int64
}

// maxStoredSpans caps the spans kept individually; beyond it spans still
// count in the aggregates (self times stay exact) but are not written out.
const maxStoredSpans = 1 << 18

// tracer records spans and named counters of a traced run. It is used
// from one host thread at a time: SimEnv runs one simulated process at
// a time, and the benchmark's own driver code runs between them.
type tracer struct {
	t0      time.Time
	run     int32
	spans   []span
	agg     map[string]*spanAgg
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*spanAgg{}}
}

// begin opens a span named name under parent (a zero spanRef is the root).
// A nil tracer records nothing, so untraced code paths call it freely.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	ref := spanRef{name: name, parent: parent.name, idx: -1, start: now}
	if len(t.spans) < maxStoredSpans {
		pi := int32(-1)
		if parent.name != "" {
			pi = parent.idx
		}
		ref.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, start: now, parent: pi, run: t.run})
	} else {
		t.dropped++
	}
	return ref
}

// end closes ref and charges its duration to its name and its parent's.
func (t *tracer) end(ref spanRef) time.Duration {
	if t == nil {
		return 0
	}
	return t.endAt(ref, int64(time.Since(t.t0)))
}

func (t *tracer) endAt(ref spanRef, now int64) time.Duration {
	d := now - ref.start
	if ref.idx >= 0 {
		t.spans[ref.idx].end = now
	}
	a := t.aggOf(ref.name)
	a.count++
	a.total += d
	if ref.parent != "" {
		t.aggOf(ref.parent).kids += d
	}
	return time.Duration(d)
}

func (t *tracer) aggOf(name string) *spanAgg {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	return a
}

// mean is the mean duration of the spans named name, in ns.
func (t *tracer) mean(name string) float64 {
	a := t.agg[name]
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count)
}

// printSpans writes the span table: count, total and self time per name.
// Self time is duration minus the direct children's duration; the root
// "rep" row's self time is the part no instrumented layer covers.
func (t *tracer) printSpans(w io.Writer) {
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# spans (stored %d, aggregated only %d)\n", len(t.spans), t.dropped)
	fmt.Fprintf(w, "# %-28s %10s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, n := range names {
		a := t.agg[n]
		fmt.Fprintf(w, "# %-28s %10d %12.3f %12.3f %10.3f\n", n, a.count,
			float64(a.total)/1e6, float64(a.total-a.kids)/1e6, float64(a.total)/float64(a.count)/1e3)
	}
}

// writeSpans writes the stored spans as tab-separated
// run, name, start_ns, end_ns, parent lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "run\tname\tstart_ns\tend_ns\tparent")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\n", s.run, s.name, s.start, s.end, s.parent)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record adds a span measured by its caller: it started at start and took d.
func (t *tracer) record(name string, parent spanRef, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	ref := t.begin(name, parent)
	ref.start = int64(start.Sub(t.t0))
	if ref.idx >= 0 {
		t.spans[ref.idx].start = ref.start
	}
	t.endAt(ref, ref.start+int64(d))
}
