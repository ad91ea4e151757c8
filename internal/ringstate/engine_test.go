package ringstate

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine(%+v): %v", cfg, err)
	}
	return eng
}

func TestEngineEmptyRingVerdicts(t *testing.T) {
	eng := mustEngine(t, Config{BandwidthMbps: 16, FaultSpec: "loss:p=1e-3"})
	vs := eng.Verdicts()
	if len(vs) != 3 {
		t.Fatalf("empty ring has %d verdicts, want 3", len(vs))
	}
	for _, v := range vs {
		if !v.Schedulable || v.Degraded != nil || len(v.Streams) != 0 {
			t.Fatalf("empty ring verdict %+v: want vacuously schedulable, no degraded, no streams", v)
		}
	}
}

func TestEngineRejectsBadConfigAndStreams(t *testing.T) {
	if _, err := NewEngine(Config{BandwidthMbps: 0}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero bandwidth: %v, want ErrBadConfig", err)
	}
	if _, err := NewEngine(Config{BandwidthMbps: 16, Protocols: []string{"token-bus"}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown protocol: %v, want ErrBadConfig", err)
	}
	if _, err := NewEngine(Config{BandwidthMbps: 16, FaultSpec: "no-such-scenario"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad fault spec: %v, want ErrBadConfig", err)
	}
	eng := mustEngine(t, Config{BandwidthMbps: 16})
	if _, _, err := eng.Add(Stream{PeriodMs: -1, LengthBits: 100}); !errors.Is(err, ErrBadStream) {
		t.Fatalf("negative period: %v, want ErrBadStream", err)
	}
	if _, _, err := eng.Add(Stream{PeriodMs: 10, LengthBits: 0}); !errors.Is(err, ErrBadStream) {
		t.Fatalf("zero length: %v, want ErrBadStream", err)
	}
	if eng.Len() != 0 {
		t.Fatalf("rejected adds mutated the engine: %d streams", eng.Len())
	}
	if _, err := eng.Modify(99, Stream{PeriodMs: 10, LengthBits: 100}); err != ErrStreamNotFound {
		t.Fatalf("Modify(missing): %v, want ErrStreamNotFound", err)
	}
}

// TestEnginePDPSuffixReprobe pins the tentpole property: an edit at the
// lowest rate-monotonic priority re-probes only itself on the PDP path
// and one stream on the TTP path (TTRT unchanged).
func TestEnginePDPSuffixReprobe(t *testing.T) {
	eng := mustEngine(t, Config{BandwidthMbps: 16})
	for i := 0; i < 10; i++ {
		if _, _, err := eng.Add(Stream{PeriodMs: float64(10 * (i + 1)), LengthBits: 2048}); err != nil {
			t.Fatal(err)
		}
	}
	_, d, err := eng.Add(Stream{PeriodMs: 500, LengthBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range d.Protocols {
		if pd.Reprobed != 1 {
			t.Fatalf("%s reprobed %d streams for a lowest-priority add, want 1", pd.Protocol, pd.Reprobed)
		}
		if !pd.EditedSchedulable {
			t.Fatalf("%s: lightly loaded add reported infeasible: %+v", pd.Protocol, pd)
		}
	}
	// A new minimum period moves TTRT: the TTP pass must recompute every
	// stream, the PDP passes the whole (lower-priority) suffix.
	n := eng.Len()
	_, d, err = eng.Add(Stream{PeriodMs: 2, LengthBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range d.Protocols {
		if pd.Protocol == ProtocolTTP && pd.Reprobed != n+1 {
			t.Fatalf("TTP reprobed %d after a TTRT shift, want %d", pd.Reprobed, n+1)
		}
		if pd.Protocol != ProtocolTTP && pd.Reprobed != n+1 {
			t.Fatalf("%s reprobed %d for a highest-priority add, want %d", pd.Protocol, pd.Reprobed, n+1)
		}
	}
}

// TestEngineStationGrowthRebuild crosses the 100-station plant boundary:
// past it every edit re-plants the ring (Θ changes), and verdicts must
// still match the reference bitwise.
func TestEngineStationGrowthRebuild(t *testing.T) {
	cfg := Config{BandwidthMbps: 100, Protocols: []string{ProtocolTTP, ProtocolModifiedPDP}}
	eng := mustEngine(t, cfg)
	var mirror []SnapshotStream
	for i := 0; i < 103; i++ {
		s := Stream{Name: fmt.Sprintf("s%03d", i), PeriodMs: 200 + float64(i%7), LengthBits: 256}
		id, d, err := eng.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, SnapshotStream{ID: id, Stream: s})
		if i+1 > 100 {
			for _, pd := range d.Protocols {
				if pd.Reprobed < i+1 {
					t.Fatalf("add %d (stations grew): %s reprobed %d, want full rebuild ≥ %d",
						i+1, pd.Protocol, pd.Reprobed, i+1)
				}
			}
		}
	}
	checkStep(t, cfg, eng, mirror, 0)
	// Shrinking back across the boundary rebuilds too.
	if _, err := eng.Remove(mirror[0].ID); err != nil {
		t.Fatal(err)
	}
	mirror = mirror[1:]
	checkStep(t, cfg, eng, mirror, 1)
}

// TestEngineDeltaFlips forces another stream's verdict to flip: a heavy
// high-priority arrival pushes an existing low-priority stream past its
// deadline, and the delta must name it.
func TestEngineDeltaFlips(t *testing.T) {
	cfg := Config{BandwidthMbps: 4, Protocols: []string{ProtocolStandardPDP}}
	eng := mustEngine(t, cfg)
	victim, _, err := eng.Add(Stream{Name: "victim", PeriodMs: 12, LengthBits: 16384})
	if err != nil {
		t.Fatal(err)
	}
	var flipped bool
	var mirror = []SnapshotStream{{ID: victim, Stream: Stream{Name: "victim", PeriodMs: 12, LengthBits: 16384}}}
	for i := 0; i < 12 && !flipped; i++ {
		s := Stream{Name: fmt.Sprintf("h%d", i), PeriodMs: 6, LengthBits: 16384}
		id, d, err := eng.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, SnapshotStream{ID: id, Stream: s})
		for _, f := range d.Protocols[0].Flipped {
			if f.ID == victim && !f.Schedulable {
				flipped = true
			}
		}
		checkStep(t, cfg, eng, mirror, i)
	}
	if !flipped {
		t.Fatal("no delta ever reported the victim stream flipping to infeasible")
	}
	if eng.Verdicts()[0].Schedulable {
		t.Fatal("ring still schedulable after overload")
	}
}

// TestEngineModifyKeepsID pins modify semantics: same ID, new canonical
// position after all tied keys.
func TestEngineModifyKeepsID(t *testing.T) {
	eng := mustEngine(t, Config{BandwidthMbps: 16})
	a, _, _ := eng.Add(Stream{Name: "dup", PeriodMs: 10, LengthBits: 1024})
	b, _, _ := eng.Add(Stream{Name: "dup", PeriodMs: 10, LengthBits: 1024})
	if _, err := eng.Modify(a, Stream{Name: "dup", PeriodMs: 10, LengthBits: 1024}); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if len(snap) != 2 || snap[0].ID != b || snap[1].ID != a {
		t.Fatalf("modify among exact ties: snapshot order %+v, want [%d %d]", snap, b, a)
	}
}

// TestEngineTTPSaturatedVisits: a ring holding a stream whose period
// allows 2⁶³ or more token rotations reports what a from-scratch Report
// does — schedulable, with the saturated visit count and a finite
// allocation.
func TestEngineTTPSaturatedVisits(t *testing.T) {
	cfg := Config{BandwidthMbps: 100, Protocols: []string{ProtocolTTP}}
	eng := mustEngine(t, cfg)
	if _, _, err := eng.Add(Stream{Name: "far", PeriodMs: 1e300, LengthBits: 4096}); err != nil {
		t.Fatal(err)
	}
	got := eng.Verdicts()[0]
	s := got.Streams[0]
	if !got.Schedulable || !s.Schedulable || s.Q != math.MaxInt64 || math.IsInf(s.Allocation, 0) {
		t.Fatalf("ring verdict schedulable=%v, stream %+v; want schedulable with Q=MaxInt64 and a finite allocation", got.Schedulable, s)
	}
	want, err := FullVerdicts(cfg, eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", want[0]) != fmt.Sprintf("%+v", got) {
		t.Fatalf("ring verdict %+v, from scratch %+v", got, want[0])
	}
}
