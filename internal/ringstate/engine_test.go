package ringstate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"ringsched/internal/rma"
	"ringsched/internal/wire"
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
	if _, err := NewEngine(Config{BandwidthMbps: 16, Protocols: []string{"token-bus"}}); !errors.Is(err, wire.ErrUnknownProtocol) {
		t.Fatalf("unknown protocol: %v, want wire.ErrUnknownProtocol", err)
	}
	if _, err := NewEngine(Config{BandwidthMbps: 16, FaultSpec: "no-such-scenario"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad fault spec: %v, want ErrBadConfig", err)
	}
	eng := mustEngine(t, Config{BandwidthMbps: 16})
	if _, _, err := eng.Add(wire.StreamSpec{PeriodMs: -1, LengthBits: 100}); !errors.Is(err, ErrBadStream) {
		t.Fatalf("negative period: %v, want ErrBadStream", err)
	}
	if _, _, err := eng.Add(wire.StreamSpec{PeriodMs: 10, LengthBits: 0}); !errors.Is(err, ErrBadStream) {
		t.Fatalf("zero length: %v, want ErrBadStream", err)
	}
	if eng.Len() != 0 {
		t.Fatalf("rejected adds mutated the engine: %d streams", eng.Len())
	}
	if _, err := eng.Modify(99, wire.StreamSpec{PeriodMs: 10, LengthBits: 100}); err != ErrStreamNotFound {
		t.Fatalf("Modify(missing): %v, want ErrStreamNotFound", err)
	}
}

// TestEnginePDPSuffixReprobe pins the tentpole property: an edit at the
// lowest rate-monotonic priority re-probes only itself on the PDP path
// and one stream on the TTP path (TTRT unchanged).
func TestEnginePDPSuffixReprobe(t *testing.T) {
	eng := mustEngine(t, Config{BandwidthMbps: 16})
	for i := 0; i < 10; i++ {
		if _, _, err := eng.Add(wire.StreamSpec{PeriodMs: float64(10 * (i + 1)), LengthBits: 2048}); err != nil {
			t.Fatal(err)
		}
	}
	_, d, err := eng.Add(wire.StreamSpec{PeriodMs: 500, LengthBits: 2048})
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
	_, d, err = eng.Add(wire.StreamSpec{PeriodMs: 2, LengthBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range d.Protocols {
		if pd.Protocol == wire.ProtocolTTP && pd.Reprobed != n+1 {
			t.Fatalf("TTP reprobed %d after a TTRT shift, want %d", pd.Reprobed, n+1)
		}
		if pd.Protocol != wire.ProtocolTTP && pd.Reprobed != n+1 {
			t.Fatalf("%s reprobed %d for a highest-priority add, want %d", pd.Protocol, pd.Reprobed, n+1)
		}
	}
}

// TestEngineStationGrowthRebuild crosses the 100-station plant boundary:
// past it every edit re-plants the ring (Θ changes), and verdicts must
// still match the reference bitwise.
func TestEngineStationGrowthRebuild(t *testing.T) {
	cfg := Config{BandwidthMbps: 100, Protocols: []string{wire.ProtocolTTP, wire.ProtocolModifiedPDP}}
	eng := mustEngine(t, cfg)
	var mirror []SnapshotStream
	for i := 0; i < 103; i++ {
		s := wire.StreamSpec{Name: fmt.Sprintf("s%03d", i), PeriodMs: 200 + float64(i%7), LengthBits: 256}
		id, d, err := eng.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, SnapshotStream{ID: id, StreamSpec: s})
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
	cfg := Config{BandwidthMbps: 4, Protocols: []string{wire.ProtocolStandardPDP}}
	eng := mustEngine(t, cfg)
	victim, _, err := eng.Add(wire.StreamSpec{Name: "victim", PeriodMs: 12, LengthBits: 16384})
	if err != nil {
		t.Fatal(err)
	}
	var flipped bool
	var mirror = []SnapshotStream{{ID: victim, StreamSpec: wire.StreamSpec{Name: "victim", PeriodMs: 12, LengthBits: 16384}}}
	for i := 0; i < 12 && !flipped; i++ {
		s := wire.StreamSpec{Name: fmt.Sprintf("h%d", i), PeriodMs: 6, LengthBits: 16384}
		id, d, err := eng.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		mirror = append(mirror, SnapshotStream{ID: id, StreamSpec: s})
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
	a, _, _ := eng.Add(wire.StreamSpec{Name: "dup", PeriodMs: 10, LengthBits: 1024})
	b, _, _ := eng.Add(wire.StreamSpec{Name: "dup", PeriodMs: 10, LengthBits: 1024})
	if _, err := eng.Modify(a, wire.StreamSpec{Name: "dup", PeriodMs: 10, LengthBits: 1024}); err != nil {
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
	cfg := Config{BandwidthMbps: 100, Protocols: []string{wire.ProtocolTTP}}
	eng := mustEngine(t, cfg)
	if _, _, err := eng.Add(wire.StreamSpec{Name: "far", PeriodMs: 1e300, LengthBits: 4096}); err != nil {
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
	stampHandles(want, eng.Snapshot())
	if fmt.Sprintf("%+v", want[0]) != fmt.Sprintf("%+v", got) {
		t.Fatalf("ring verdict %+v, from scratch %+v", got, want[0])
	}
}

// TestEngineRefusedEditLeavesStateUnchanged: a payload at or past 2⁷²
// bits is refused by validation, and an edit whose cost overflows inside
// the kernel (1e18 bits at 1e-300 Mbps) comes back as the rma error with
// the engine exactly as before: the same snapshot, verdicts and next
// stream ID. The refusal covers add, modify and a station-count change.
func TestEngineRefusedEditLeavesStateUnchanged(t *testing.T) {
	if _, _, err := mustEngine(t, Config{BandwidthMbps: 16}).Add(wire.StreamSpec{PeriodMs: 10, LengthBits: 1e308}); !errors.Is(err, ErrBadStream) {
		t.Fatalf("lengthBits 1e308: %v, want ErrBadStream", err)
	}
	for _, cfg := range []Config{
		{BandwidthMbps: 1e-300},
		{BandwidthMbps: 1e-300, FaultSpec: "loss:p=1e-3"},
	} {
		eng := mustEngine(t, cfg)
		var last uint64
		for i := 0; i < 100; i++ { // a full 100-station ring: one more add re-plants it
			id, _, err := eng.Add(wire.StreamSpec{Name: fmt.Sprint(i), PeriodMs: 10, LengthBits: 1})
			if err != nil {
				t.Fatal(err)
			}
			last = id
		}
		type state struct {
			Snapshot []SnapshotStream
			Verdicts []wire.Verdict
		}
		snap := func() state { return state{eng.Snapshot(), eng.Verdicts()} }
		before := snap()
		huge := wire.StreamSpec{Name: "huge", PeriodMs: 10, LengthBits: 1e18}
		if _, _, err := eng.Add(huge); !errors.Is(err, rma.ErrBadTask) {
			t.Fatalf("%+v: overflowing add: %v, want rma.ErrBadTask", cfg, err)
		}
		if _, err := eng.Modify(last, huge); !errors.Is(err, rma.ErrBadTask) {
			t.Fatalf("%+v: overflowing modify: %v, want rma.ErrBadTask", cfg, err)
		}
		if after := snap(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%+v: refused edits changed the engine:\n%+v\nvs\n%+v", cfg, after, before)
		}
		if _, err := eng.Remove(last); err != nil {
			t.Fatal(err)
		}
		if id, _, err := eng.Add(wire.StreamSpec{PeriodMs: 20, LengthBits: 1}); err != nil || id != last+1 {
			t.Fatalf("%+v: next add got id %d (%v), want %d", cfg, id, err, last+1)
		}
	}
}

// wireNonFinite returns the first NaN or ±Inf a verdict list would put on
// the wire, walking every float field by reflection in field order. An
// unbounded degraded allocation already reads -1 there (wire.Allocation).
func wireNonFinite(v reflect.Value) (float64, bool) {
	switch v.Kind() {
	case reflect.Float64:
		if x := v.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
			return x, true
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return wireNonFinite(v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if x, bad := wireNonFinite(v.Index(i)); bad {
				return x, true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if x, bad := wireNonFinite(v.Field(i)); bad {
				return x, true
			}
		}
	}
	return 0, false
}

// TestEngineRefusesNonFiniteVerdicts: at near-zero bandwidths an edit can
// leave verdicts holding +Inf where the kernel has no error to give. The
// engine refuses exactly the edits whose from-scratch verdicts carry a
// NaN or ±Inf on the wire, naming the first one as encoding/json would,
// and a refused add, modify or remove leaves the snapshot, verdicts and
// next stream ID as they were.
func TestEngineRefusesNonFiniteVerdicts(t *testing.T) {
	type state struct {
		Snapshot []SnapshotStream
		Verdicts []wire.Verdict
	}
	refused, nonFiniteRefused := 0, 0
	for _, cfg := range []Config{
		{BandwidthMbps: 1e-300, Protocols: []string{wire.ProtocolTTP}},
		{BandwidthMbps: 1e-300, Protocols: []string{wire.ProtocolTTP}, FaultSpec: "loss:p=1e-3"},
		{BandwidthMbps: 1e-310, Protocols: []string{wire.ProtocolModifiedPDP}},
		{BandwidthMbps: 1e-310},
		{BandwidthMbps: 1e-290, FaultSpec: "loss:p=1e-3"},
		{BandwidthMbps: 1, Protocols: []string{wire.ProtocolModifiedPDP}},
		{BandwidthMbps: 1},
	} {
		eng := mustEngine(t, cfg)
		var mirror []SnapshotStream
		for step, s := range []wire.StreamSpec{
			{Name: "one", PeriodMs: 10, LengthBits: 1},
			{Name: "huge", PeriodMs: 10, LengthBits: 1e18},
			{Name: "mid", PeriodMs: 20, LengthBits: 1e6},
			{Name: "fast", PeriodMs: 1e-3, LengthBits: 1e3},
			// At 1 Mbps every number but the far stream's response time
			// is finite: the dense stream's demand carries the
			// fixpoint's first iterate past 1e305 ms to +Inf.
			{Name: "far", PeriodMs: 1e305, LengthBits: 1},
			{Name: "dense", PeriodMs: 1, LengthBits: 1e10},
		} {
			before := state{eng.Snapshot(), eng.Verdicts()}
			next := append(append([]SnapshotStream(nil), mirror...), SnapshotStream{ID: eng.nextID, StreamSpec: s})
			want, werr := FullVerdicts(cfg, next)
			bad, nonFinite := wireNonFinite(reflect.ValueOf(want))
			id, _, err := eng.Add(s)
			switch {
			case werr != nil || nonFinite:
				if err == nil {
					t.Fatalf("%+v step %d: add of %+v accepted, reference %v / non-finite %v", cfg, step, s, werr, bad)
				}
				var uve *json.UnsupportedValueError
				if werr == nil {
					if !errors.As(err, &uve) || uve.Str != strconv.FormatFloat(bad, 'g', -1, 64) {
						t.Fatalf("%+v step %d: refusal %v, want json: unsupported value: %v", cfg, step, err, bad)
					}
					nonFiniteRefused++
				}
				if after := (state{eng.Snapshot(), eng.Verdicts()}); !reflect.DeepEqual(after, before) {
					t.Fatalf("%+v step %d: refused add changed the engine", cfg, step)
				}
				refused++
			case err != nil:
				t.Fatalf("%+v step %d: add refused (%v), reference verdicts are finite", cfg, step, err)
			default:
				mirror = next
				if id != next[len(next)-1].ID {
					t.Fatalf("%+v step %d: id %d, want %d", cfg, step, id, next[len(next)-1].ID)
				}
			}
		}
		if len(mirror) == 0 {
			continue
		}
		// Modifying the first resident stream to the overflowing payload
		// and removing it are held to the same rule.
		first := mirror[0]
		for _, op := range []string{OpModify, OpRemove} {
			before := state{eng.Snapshot(), eng.Verdicts()}
			var next []SnapshotStream
			for _, m := range mirror {
				switch {
				case m.ID != first.ID:
					next = append(next, m)
				case op == OpModify:
					next = append(next, SnapshotStream{ID: m.ID, StreamSpec: wire.StreamSpec{Name: "huge", PeriodMs: 10, LengthBits: 1e18}})
				}
			}
			want, werr := FullVerdicts(cfg, next)
			_, nonFinite := wireNonFinite(reflect.ValueOf(want))
			var err error
			if op == OpModify {
				_, err = eng.Modify(first.ID, wire.StreamSpec{Name: "huge", PeriodMs: 10, LengthBits: 1e18})
			} else {
				_, err = eng.Remove(first.ID)
			}
			if refuse := werr != nil || nonFinite; refuse != (err != nil) {
				t.Fatalf("%+v %s: error %v, reference %v / non-finite %v", cfg, op, err, werr, nonFinite)
			}
			if err != nil {
				if after := (state{eng.Snapshot(), eng.Verdicts()}); !reflect.DeepEqual(after, before) {
					t.Fatalf("%+v: refused %s changed the engine", cfg, op)
				}
				refused++
				continue
			}
			mirror = next
		}
	}
	if refused == 0 || nonFiniteRefused == 0 {
		t.Fatalf("%d edits refused, %d of them for non-finite verdicts the kernel accepted", refused, nonFiniteRefused)
	}
	t.Logf("%d edits refused, %d of them for non-finite verdicts the kernel accepted", refused, nonFiniteRefused)
}
