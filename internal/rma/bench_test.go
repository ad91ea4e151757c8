package rma

import (
	"math/rand"
	"testing"
)

// benchTaskSet draws an RM-ordered n-task set with the paper's period
// spread (max/min = 10 around a 100 ms mean) scaled to the given
// utilization, so the exact test does representative work near the
// schedulability threshold.
func benchTaskSet(n int, util float64, seed int64) TaskSet {
	rng := rand.New(rand.NewSource(seed))
	ts := make(TaskSet, n)
	var u float64
	for i := range ts {
		p := 100e-3 * (2.0/11.0 + rng.Float64()*(20.0/11.0-2.0/11.0))
		c := p * rng.Float64()
		ts[i] = Task{Cost: c, Period: p}
		u += c / p
	}
	for i := range ts {
		ts[i].Cost *= util / u
	}
	return ts.SortRM()
}

// benchScales is the probe ladder the benchmarks cycle through; it mimics
// a saturation search's bracketing pattern (passes and failures mixed) so
// the workspace's bracket inferences are exercised realistically.
var benchScales = []float64{0.5, 1.0, 1.2, 0.9, 1.05, 0.97, 1.01, 0.99}

// BenchmarkExactTestReference measures the reference scheduling-point test
// (sort + merge per call) on a 100-task set — the pre-workspace baseline.
func BenchmarkExactTestReference(b *testing.B) {
	ts := benchTaskSet(100, 0.88, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactTest(ts, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTAReference measures the reference response-time analysis on
// the same set.
func BenchmarkRTAReference(b *testing.B) {
	ts := benchTaskSet(100, 0.88, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ResponseTimeAnalysis(ts, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceExactTest measures the workspace exact test with the
// scheduling points cached at Load; the inner loop must not allocate.
func BenchmarkWorkspaceExactTest(b *testing.B) {
	var ws Workspace
	if err := ws.Load(benchTaskSet(100, 0.88, 1)); err != nil {
		b.Fatal(err)
	}
	if _, err := ws.ExactTest(1e-4); err != nil { // build the lazy point cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ScaleCosts(benchScales[i%len(benchScales)])
		if _, err := ws.ExactTest(1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceRTA measures the workspace response-time analysis
// (buffer-reusing, allocation-free).
func BenchmarkWorkspaceRTA(b *testing.B) {
	var ws Workspace
	if err := ws.Load(benchTaskSet(100, 0.88, 1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ScaleCosts(benchScales[i%len(benchScales)])
		if _, err := ws.ResponseTimeAnalysis(1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceProbe measures the verdict-only saturation probe —
// the innermost loop of every Monte Carlo breakdown sample, with the
// bracket inferences live.
func BenchmarkWorkspaceProbe(b *testing.B) {
	var ws Workspace
	if err := ws.Load(benchTaskSet(100, 0.88, 1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ScaleCosts(benchScales[i%len(benchScales)])
		if _, err := ws.Schedulable(1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkspaceProbesAllocationFree pins the headline performance claim as
// a plain test: once a set is loaded, re-scaling and re-testing performs
// zero heap allocations per probe, on all three entry points.
func TestWorkspaceProbesAllocationFree(t *testing.T) {
	var ws Workspace
	if err := ws.Load(benchTaskSet(60, 0.85, 7)); err != nil {
		t.Fatal(err)
	}
	// Warm the bracket state the way a search would.
	for _, s := range []float64{0.5, 1.3, 1.0} {
		ws.ScaleCosts(s)
		if _, err := ws.Schedulable(0); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ws.ScaleCosts(benchScales[i%len(benchScales)])
		i++
		if _, err := ws.Schedulable(1e-4); err != nil {
			t.Error(err)
		}
		if _, err := ws.ExactTest(1e-4); err != nil {
			t.Error(err)
		}
		if _, err := ws.ResponseTimeAnalysis(1e-4); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("workspace probes allocated %.1f times per run, want 0", allocs)
	}
}
