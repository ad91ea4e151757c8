package core

import (
	"math/rand"
	"testing"

	"ringsched/internal/message"
)

// benchProbeSet draws the paper's 100-stream workload for the probe
// micro-benchmarks.
func benchProbeSet(seed int64) message.Set {
	gen := message.Generator{Streams: 100, MeanPeriod: 100e-3, PeriodRatio: 10}
	set, err := gen.Draw(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return set
}

// probeScales mirrors a saturation search's bracketing ladder.
var probeScales = []float64{0.5, 1.0, 2.0, 1.5, 1.25, 1.1, 1.05, 0.9}

func benchProbe(b *testing.B, ba BatchAnalyzer) {
	b.Helper()
	set := benchProbeSet(1)
	probe, release, err := ba.NewProbe(set)
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probe.Schedulable(probeScales[i%len(probeScales)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDPProbe measures one scaled Theorem 4.1 probe on a bound set
// (augmented-cost recompute + workspace exact test, no allocation).
func BenchmarkPDPProbe(b *testing.B) { benchProbe(b, NewModifiedPDP(16e6)) }

// BenchmarkTTPProbe measures one scaled Theorem 5.1 probe: the local
// synchronous-bandwidth allocation and the schedulability criterion are
// recomputed per scale without allocating.
func BenchmarkTTPProbe(b *testing.B) { benchProbe(b, NewTTP(100e6)) }

// BenchmarkTTPProbeBind measures NewProbe+release round trips — the
// sync.Pool recycling cost a sweep pays once per Monte Carlo sample.
func BenchmarkTTPProbeBind(b *testing.B) {
	ttp := NewTTP(100e6)
	set := benchProbeSet(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe, release, err := ttp.NewProbe(set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := probe.Schedulable(1.0); err != nil {
			b.Fatal(err)
		}
		release()
	}
}

// TestProbeBindAllocs pins a bind+probe+release round trip at zero
// allocations for every analyzer: each binds into its pooled job's
// buffers, copying nothing, and returns the release func the job built
// when it was made.
func TestProbeBindAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled jobs")
	}
	set := benchProbeSet(1)
	for _, ba := range []BatchAnalyzer{NewModifiedPDP(16e6), NewTTP(100e6), IdealRM{}} {
		allocs := testing.AllocsPerRun(100, func() {
			probe, release, err := ba.NewProbe(set)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := probe.Schedulable(1.0); err != nil {
				t.Fatal(err)
			}
			release()
		})
		if allocs != 0 {
			t.Errorf("%s: bind+probe+release allocates %v times, want 0", ba.Name(), allocs)
		}
	}
}

// BenchmarkAnalyzeBatch measures the batched entry point end to end
// (bind once, probe the whole scale ladder, release).
func BenchmarkAnalyzeBatch(b *testing.B) {
	pdp := NewModifiedPDP(16e6)
	set := benchProbeSet(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeBatch(pdp, set, probeScales); err != nil {
			b.Fatal(err)
		}
	}
}
