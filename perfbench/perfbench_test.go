package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHistogramQuantileIndexing(t *testing.T) {
	h := newHistogram()
	for i := 1; i <= 100; i++ {
		h.add(float64(i) * 1e3) // 1..100 µs in ns
	}
	for _, c := range []struct {
		p            float64
		want         float64
		wantBeyond   int
		wantRankOf10 int
	}{
		{0.5, 50e3, 50, 5},
		{0.9, 90e3, 10, 9},
		{0.99, 99e3, 1, 10},
		{1, 100e3, 0, 10},
	} {
		got, beyond := h.quantile(c.p)
		if math.Abs(got-c.want)/c.want > 0.0005 || beyond != c.wantBeyond {
			t.Errorf("quantile(%v) = %v, %d beyond; want %v within 0.05%%, %d beyond", c.p, got, beyond, c.want, c.wantBeyond)
		}
		if r := rank(c.p, 10); r != c.wantRankOf10 {
			t.Errorf("rank(%v, 10) = %d, want %d", c.p, r, c.wantRankOf10)
		}
	}
	if r := rank(0.001, 10); r != 1 {
		t.Errorf("rank of a tiny quantile = %d, want 1", r)
	}
	if v, n := newHistogram().quantile(0.5); v != 0 || n != 0 {
		t.Errorf("empty histogram quantile = %v, %d", v, n)
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCalibrationFactor(t *testing.T) {
	if f := calibrationFactor(2, mean([]float64{1, 3, 2})); f != 1 {
		t.Errorf("factor = %v, want 1 (reference equals the mean kernel time)", f)
	}
	if f := calibrationFactor(1, 2); f != 0.5 {
		t.Errorf("factor = %v, want 0.5 on a host twice as slow", f)
	}
}

func TestBlockThroughputIsMedianOfBlockRates(t *testing.T) {
	// Rates 100/s, 50/s and 200/s: the median block, not the pooled mean
	// (300 ops in 3.5 s = 85.7/s).
	if got := blockThroughput([]int{100, 100, 100}, []float64{1, 2, 0.5}); got != 100 {
		t.Errorf("throughput = %v, want 100", got)
	}
}

// Every workload's corpus is a function of the seed alone.
func TestCorpusDeterminism(t *testing.T) {
	digest := func(t *testing.T, name string, seed int64) uint64 {
		sp, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		e := &env{seed: seed, perBlock: sp.perBlock, led: newLedger()}
		w, err := sp.make(e)
		if err != nil {
			t.Fatal(err)
		}
		w.prepare(0)
		return e.led.in
	}
	for _, sp := range workloads {
		a, b, c := digest(t, sp.name, 1), digest(t, sp.name, 1), digest(t, sp.name, 2)
		if a != b {
			t.Errorf("%s: seed 1 generated two different corpora", sp.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same corpus", sp.name)
		}
	}
}

// A clean run reports no failures; a run against one corrupted
// expectation (a flipped verdict, an altered expected byte, a wrong
// expected event count) must report some.
func TestChecksCatchCorruptedExpectations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range workloads {
		for _, corrupt := range []bool{false, true} {
			o, err := run(config{workload: sp.name, seed: 3, seconds: 0.01, corrupt: corrupt})
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			if corrupt && o.failed == 0 {
				t.Errorf("%s: corrupted expectation reported error_rate 0", sp.name)
			}
			if !corrupt && o.failed != 0 {
				t.Errorf("%s: clean run failed %d of %d: %v", sp.name, o.failed, o.attempted, o.errs)
			}
		}
	}
}

// Exact counts repeat across runs of one seed, and a mismatch is
// reported as failed ops.
func TestExactCountLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload three times")
	}
	dir := t.TempDir()
	cfg := config{workload: "fig1-sweep", seed: 7, seconds: 0.01, ledgerDir: dir}
	for i := 0; i < 2; i++ {
		o, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("run %d of one seed: %v", i, o.errs)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "fig1-sweep-t0-7.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("ledger files %v, %v", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		t.Fatal(err)
	}
	l.Blocks[0] = "0000000000000000"
	if b, err = json.Marshal(l); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 {
		t.Error("a count mismatch against the stored ledger was not reported")
	}
}

// A traced run's exact counts repeat across two runs of one seed.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, c := range []struct {
		workload string
		counts   []string
	}{
		{"fig1-sweep", []string{"core.probes_per_saturation"}},
		{"token-sim", []string{"sim.pdp_events_per_run", "sim.ttp_events_per_run", "sim.res_events_per_run"}},
	} {
		var got [2]*outcome
		for i := range got {
			o, err := run(config{workload: c.workload, seed: 9, seconds: 0.01, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = o
		}
		for _, name := range c.counts {
			a, b := got[0].metrics[name], got[1].metrics[name]
			if a <= 0 || a != b {
				t.Errorf("%s: %s = %v then %v", c.workload, name, a, b)
			}
		}
	}
}

// The result line carries exactly the contract's keys and every metric
// BENCHMARK.json names for the mode.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, tr := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := realMain([]string{"--workload", "token-sim", "--seed", "4", "--seconds", "0.01", "--trace", tr,
			"--ledger", "", "--spans", ""}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tr, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("result keys: %s", lines[len(lines)-1])
		}
		var metrics map[string]valueUnit
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if tr == "1" {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", tr, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tr, d.name, m, d.unit)
			}
		}
	}
	if code := realMain([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts %d/%d, want %d/%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}
