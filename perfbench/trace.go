package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call. parent indexes the op's span list (-1 for the
// op's root span); start and end are ns since the tracer's origin.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans around calls into the program, in memory, and
// turns them into per-layer samples. A nil *tracer records nothing, so
// workloads call it unconditionally and untraced blocks pay one branch.
type tracer struct {
	origin time.Time
	op     int
	spans  []span // the current op's spans
	open   []int  // indices of spans not yet ended

	dump    []span // spans of the first dumpOps traced ops, written at exit
	dumpOps int
	dumped  int

	pending map[string][]float64   // this block's raw time samples (µs or ns)
	raw     map[string][]float64   // all raw time samples
	cal     map[string][]float64   // all calibrated time samples
	sums    map[string]*[2]float64 // sum and count, for per-item means
	values  map[string][]float64   // unitless samples (medians)
	mem     runtime.MemStats

	meansDone bool // the first traced block has ended
}

func newTracer(dumpOps int) *tracer {
	return &tracer{
		origin:  time.Now(),
		dumpOps: dumpOps,
		pending: map[string][]float64{},
		raw:     map[string][]float64{},
		cal:     map[string][]float64{},
		sums:    map[string]*[2]float64{},
		values:  map[string][]float64{},
	}
}

// beginOp opens op's root span.
func (t *tracer) beginOp(op int) {
	t.op = op
	t.spans = t.spans[:0]
	t.open = t.open[:0]
	t.begin("op")
}

// endOp closes the root span and keeps the op's spans for the dump.
func (t *tracer) endOp() {
	t.end(0)
	if t.dumped < t.dumpOps {
		t.dump = append(t.dump, t.spans...)
		t.dumped++
	}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i (the innermost open one) and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// self is span i's duration minus what its direct children cover.
func (t *tracer) self(i int) time.Duration {
	d := t.spans[i].End - t.spans[i].Start
	for _, s := range t.spans[i+1:] {
		if s.Parent == i {
			d -= s.End - s.Start
		}
	}
	return time.Duration(d)
}

// time records a timing sample of metric name; unitNs is the metric's
// unit in ns (1e3 for µs). Samples are calibrated when their block ends.
func (t *tracer) time(name string, d time.Duration, unitNs float64) {
	if t == nil {
		return
	}
	t.pending[name] = append(t.pending[name], float64(d)/unitNs)
}

// mean adds one item's count to metric name's per-item mean. Means cover
// the first traced block only: its ops are the same in every run of a
// seed, so exact counts repeat exactly from run to run.
func (t *tracer) mean(name string, v float64) {
	if t == nil || t.meansDone {
		return
	}
	s := t.sums[name]
	if s == nil {
		s = new([2]float64)
		t.sums[name] = s
	}
	s[0] += v
	s[1]++
}

// value records a unitless sample of metric name (reported as a median).
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.values[name] = append(t.values[name], v)
}

// mallocs is the process's cumulative heap allocation count.
func (t *tracer) mallocs() uint64 {
	if t == nil {
		return 0
	}
	runtime.ReadMemStats(&t.mem)
	return t.mem.Mallocs
}

// endBlock calibrates the block's timing samples with its factor.
func (t *tracer) endBlock(factor float64) {
	t.meansDone = true
	for name, xs := range t.pending {
		for _, x := range xs {
			t.raw[name] = append(t.raw[name], x)
			t.cal[name] = append(t.cal[name], x*factor)
		}
		t.pending[name] = xs[:0]
	}
}

// writeDump writes the dumped spans as JSON lines.
func (t *tracer) writeDump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.dump {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
