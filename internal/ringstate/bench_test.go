package ringstate

import (
	"fmt"
	"testing"

	"ringsched/internal/wire"
)

// benchRing builds a 96-stream engine plus the matching snapshot for
// the full-reanalysis side. 96 keeps the probe add below the 100-station
// plant boundary — crossing it re-plants the ring (Θ changes), which is
// a legitimate full rebuild, not the steady-state edit being measured.
// Periods are spread so the probe stream lands at the lowest RM
// priority (the common "can I add one more?" admission-control shape).
func benchRing(b testing.TB, cfg Config) (*Engine, []SnapshotStream) {
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var snap []SnapshotStream
	for i := 0; i < 96; i++ {
		s := wire.StreamSpec{Name: fmt.Sprintf("s%03d", i), PeriodMs: 10 + float64(i), LengthBits: 2048}
		id, _, err := eng.Add(s)
		if err != nil {
			b.Fatal(err)
		}
		snap = append(snap, SnapshotStream{ID: id, StreamSpec: s})
	}
	return eng, snap
}

var benchProbe = wire.StreamSpec{Name: "probe", PeriodMs: 400, LengthBits: 4096}

// BenchmarkRingEditIncremental measures one admission probe as the ring
// subsystem performs it: an incremental add followed by an incremental
// remove on a resident 100-stream, all-protocols ring.
func BenchmarkRingEditIncremental(b *testing.B) {
	eng, _ := benchRing(b, Config{BandwidthMbps: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := eng.Add(benchProbe)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingEditFull measures the same probe answered the stateless
// way: a from-scratch analysis of the grown set, then of the shrunk set.
func BenchmarkRingEditFull(b *testing.B) {
	cfg := Config{BandwidthMbps: 16}
	_, snap := benchRing(b, cfg)
	grown := append(append([]SnapshotStream(nil), snap...), SnapshotStream{ID: 999, StreamSpec: benchProbe})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FullVerdicts(cfg, grown); err != nil {
			b.Fatal(err)
		}
		if _, err := FullVerdicts(cfg, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingEditIncrementalTTP isolates the O(1) TTP path.
func BenchmarkRingEditIncrementalTTP(b *testing.B) {
	eng, _ := benchRing(b, Config{BandwidthMbps: 16, Protocols: []string{wire.ProtocolTTP}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := eng.Add(benchProbe)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRingEditTTPAllocs gates the satellite requirement: the
// steady-state TTP edit path allocates nothing.
func TestRingEditTTPAllocs(t *testing.T) {
	eng, _ := benchRing(t, Config{BandwidthMbps: 16, Protocols: []string{wire.ProtocolTTP}})
	allocs := testing.AllocsPerRun(200, func() {
		id, _, err := eng.Add(benchProbe)
		if err != nil {
			panic(err)
		}
		if _, err := eng.Remove(id); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TTP edit path allocates %v per op, want 0", allocs)
	}
}

// TestRingEditPDPAllocs pins the clean PDP edit path at zero
// allocations too (not required by the gate, but cheap to keep).
func TestRingEditPDPAllocs(t *testing.T) {
	eng, _ := benchRing(t, Config{BandwidthMbps: 16, Protocols: []string{wire.ProtocolModifiedPDP}})
	allocs := testing.AllocsPerRun(200, func() {
		id, _, err := eng.Add(benchProbe)
		if err != nil {
			panic(err)
		}
		if _, err := eng.Remove(id); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PDP edit path allocates %v per op, want 0", allocs)
	}
}

// TestRingEditSpeedupGate enforces the acceptance criterion: a
// single-stream incremental edit is ≥10× cheaper than full re-analysis
// on a 100-stream ring. The expected gap is two orders of magnitude, so
// the 10× floor holds even on loaded CI machines.
func TestRingEditSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	inc := testing.Benchmark(BenchmarkRingEditIncremental)
	full := testing.Benchmark(BenchmarkRingEditFull)
	if inc.N == 0 || full.N == 0 {
		t.Fatal("empty benchmark result")
	}
	incNs := float64(inc.T.Nanoseconds()) / float64(inc.N)
	fullNs := float64(full.T.Nanoseconds()) / float64(full.N)
	ratio := fullNs / incNs
	t.Logf("incremental %.0f ns/edit, full %.0f ns/edit, speedup %.1fx", incNs, fullNs, ratio)
	if ratio < 10 {
		t.Fatalf("incremental edit only %.1fx faster than full re-analysis, gate requires ≥10x", ratio)
	}
}
