package ringstate

import (
	"math"
	"math/rand"
	"testing"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/wire"
)

// The differential harness: every edit script is replayed through the
// incremental engine AND recomputed from scratch (FullVerdicts, an
// independent mapping over core.Report/FaultReport), asserting bitwise
// identical verdicts after every single step. Scripts are byte strings
// so the fuzz target and the seeded test share one replayer.
//
// Script layout: 3 header bytes select (protocol subset, bandwidth,
// fault spec); each following 5-byte group is one op
// [kind, target, period, bits, name].

var (
	diffPeriodsMs = []float64{2, 5, 5, 10, 10, 10, 20, 50}
	diffBits      = []float64{512, 1024, 4096, 65536, 2e5}
	diffNames     = []string{"", "a", "b", "dup", "dup"}
	diffBWs       = []float64{16, 100, 4}
	diffProtocols = [][]string{
		nil, // all three
		{wire.ProtocolModifiedPDP},
		{wire.ProtocolStandardPDP},
		{wire.ProtocolTTP},
		{wire.ProtocolModifiedPDP, wire.ProtocolTTP},
	}
)

// diffFaultSpecs is "" (clean) plus every active built-in scenario.
func diffFaultSpecs() []string {
	specs := []string{""}
	for _, sc := range faults.Scenarios() {
		if sc.Model.Active() {
			specs = append(specs, sc.Model.Spec())
		}
	}
	return specs
}

func scriptConfig(h []byte) Config {
	specs := diffFaultSpecs()
	return Config{
		Protocols:     diffProtocols[int(h[0])%len(diffProtocols)],
		BandwidthMbps: diffBWs[int(h[1])%len(diffBWs)],
		FaultSpec:     specs[int(h[2])%len(specs)],
	}
}

func scriptStream(b []byte) wire.StreamSpec {
	return wire.StreamSpec{
		Name:       diffNames[int(b[4])%len(diffNames)],
		PeriodMs:   diffPeriodsMs[int(b[2])%len(diffPeriodsMs)],
		LengthBits: diffBits[int(b[3])%len(diffBits)],
	}
}

const (
	maxScriptOps     = 48
	maxScriptStreams = 40
)

// replayEditScript drives one script through the engine and the mirror,
// checking bit-identity at every step. The mirror models edits exactly
// as a stateless caller would: adds and modifies append to an
// arrival-ordered list that FullVerdicts canonicalizes itself.
func replayEditScript(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	cfg := scriptConfig(data)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine(%+v): %v", cfg, err)
	}
	checkStep(t, cfg, eng, nil, -1)
	var mirror []SnapshotStream
	ops := data[3:]
	for step := 0; len(ops) >= 5 && step < maxScriptOps; step++ {
		b := ops[:5]
		ops = ops[5:]
		kind := int(b[0]) % 8
		switch {
		case kind < 4 || len(mirror) == 0: // add
			if len(mirror) >= maxScriptStreams {
				continue
			}
			s := scriptStream(b)
			id, d, err := eng.Add(s)
			if err != nil {
				t.Fatalf("step %d: Add(%+v): %v", step, s, err)
			}
			checkDeltaShape(t, eng, d, OpAdd, id, step)
			mirror = append(mirror, SnapshotStream{ID: id, StreamSpec: s})
		case kind < 6: // remove
			i := int(b[1]) % len(mirror)
			id := mirror[i].ID
			d, err := eng.Remove(id)
			if err != nil {
				t.Fatalf("step %d: Remove(%d): %v", step, id, err)
			}
			checkDeltaShape(t, eng, d, OpRemove, id, step)
			mirror = append(mirror[:i], mirror[i+1:]...)
		default: // modify: the stream keeps its ID, takes its new canonical slot
			i := int(b[1]) % len(mirror)
			id := mirror[i].ID
			s := scriptStream(b)
			d, err := eng.Modify(id, s)
			if err != nil {
				t.Fatalf("step %d: Modify(%d, %+v): %v", step, id, s, err)
			}
			checkDeltaShape(t, eng, d, OpModify, id, step)
			mirror = append(mirror[:i], mirror[i+1:]...)
			mirror = append(mirror, SnapshotStream{ID: id, StreamSpec: s})
		}
		checkStep(t, cfg, eng, mirror, step)
	}
	// A missing stream must be a typed error and a no-op.
	if _, err := eng.Remove(1 << 60); err != ErrStreamNotFound {
		t.Fatalf("Remove(missing) = %v, want ErrStreamNotFound", err)
	}
	checkStep(t, cfg, eng, mirror, maxScriptOps)
}

// checkDeltaShape validates the structural fields of an edit delta, and
// that each protocol re-probed every stream at most once per pass: one
// clean pass, plus a degraded one on a non-empty faulted ring.
func checkDeltaShape(t *testing.T, eng *Engine, d *Delta, op string, id uint64, step int) {
	t.Helper()
	if d == nil {
		t.Fatalf("step %d: nil delta", step)
	}
	if d.Op != op || d.StreamID != id {
		t.Fatalf("step %d: delta (%s, %d), want (%s, %d)", step, d.Op, d.StreamID, op, id)
	}
	if len(d.Protocols) != len(eng.Config().Protocols) {
		t.Fatalf("step %d: %d protocol deltas, want %d", step, len(d.Protocols), len(eng.Config().Protocols))
	}
	passes := 1
	if eng.Config().FaultSpec != "" && eng.Len() > 0 {
		passes = 2
	}
	sum := 0
	for _, pd := range d.Protocols {
		if pd.Reprobed < 0 {
			t.Fatalf("step %d: negative reprobe count in %+v", step, pd)
		}
		if pd.Reprobed > passes*eng.Len() {
			t.Fatalf("step %d: %s %s re-probed %d streams, past %d passes over %d",
				step, op, pd.Protocol, pd.Reprobed, passes, eng.Len())
		}
		sum += pd.Reprobed
	}
	if sum != d.Reprobed {
		t.Fatalf("step %d: delta reprobed %d != protocol sum %d", step, d.Reprobed, sum)
	}
}

// checkStep asserts engine state is bit-identical to the from-scratch
// reference, and cross-checks the clean ring verdict against the
// analyzer's pooled batch probe.
func checkStep(t *testing.T, cfg Config, eng *Engine, mirror []SnapshotStream, step int) {
	t.Helper()
	got := eng.Verdicts()
	want, err := FullVerdicts(cfg, mirror)
	if err != nil {
		t.Fatalf("step %d: FullVerdicts: %v", step, err)
	}
	if len(got) != len(want) {
		t.Fatalf("step %d: %d verdicts, reference has %d", step, len(got), len(want))
	}
	stampHandles(want, mirror)
	for i := range got {
		compareVerdicts(t, step, got[i], want[i])
	}
	// Snapshot must be the canonicalized mirror.
	snap := eng.Snapshot()
	if len(snap) != len(mirror) {
		t.Fatalf("step %d: snapshot has %d streams, mirror %d", step, len(snap), len(mirror))
	}
	crossCheckBatch(t, cfg, eng, step)
}

// crossCheckBatch verifies the clean ring-level verdict against
// core.AnalyzeBatch at scale 1 — a third, workspace-pooled code path.
func crossCheckBatch(t *testing.T, cfg Config, eng *Engine, step int) {
	t.Helper()
	if eng.Len() == 0 {
		return
	}
	set := make(message.Set, 0, eng.Len())
	for _, s := range eng.Snapshot() {
		set = append(set, message.Stream{Name: s.Name, Period: s.PeriodMs / 1e3, LengthBits: s.LengthBits})
	}
	norm, _, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for vi, proto := range norm.Protocols {
		var a core.Analyzer
		switch proto {
		case wire.ProtocolTTP:
			a = core.TTPFor(ring.FDDI(eng.bw), len(set))
		case wire.ProtocolModifiedPDP:
			a = core.PDPFor(ring.IEEE8025(eng.bw), core.Modified8025, len(set))
		default:
			a = core.PDPFor(ring.IEEE8025(eng.bw), core.Standard8025, len(set))
		}
		verdicts, err := core.AnalyzeBatch(a, set, []float64{1})
		if err != nil {
			t.Fatalf("step %d: AnalyzeBatch(%s): %v", step, proto, err)
		}
		if got := eng.Verdicts()[vi].Schedulable; got != verdicts[0] {
			t.Fatalf("step %d: %s engine schedulable=%v, AnalyzeBatch=%v", step, proto, got, verdicts[0])
		}
	}
}

func eqBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareVerdicts asserts bitwise equality of every field, including
// -0 vs +0 and per-stream response times.
func compareVerdicts(t *testing.T, step int, got, want wire.Verdict) {
	t.Helper()
	if got.Protocol != want.Protocol || got.Schedulable != want.Schedulable {
		t.Fatalf("step %d %s: (schedulable=%v) != reference (%s, schedulable=%v)",
			step, got.Protocol, got.Schedulable, want.Protocol, want.Schedulable)
	}
	type pair struct {
		name     string
		got, ref float64
	}
	for _, p := range []pair{
		{"utilization", got.Utilization, want.Utilization},
		{"augmentedUtilization", got.AugmentedUtilization, want.AugmentedUtilization},
		{"blocking", got.Blocking, want.Blocking},
		{"theta", got.Theta, want.Theta},
		{"frameTime", got.FrameTime, want.FrameTime},
		{"ttrt", got.TTRT, want.TTRT},
		{"overhead", got.Overhead, want.Overhead},
		{"totalAllocation", got.TotalAllocation, want.TotalAllocation},
		{"capacity", got.Capacity, want.Capacity},
	} {
		if !eqBits(p.got, p.ref) {
			t.Fatalf("step %d %s: %s = %v (bits %x), reference %v (bits %x)",
				step, got.Protocol, p.name, p.got, math.Float64bits(p.got), p.ref, math.Float64bits(p.ref))
		}
	}
	if (got.Degraded == nil) != (want.Degraded == nil) {
		t.Fatalf("step %d %s: degraded presence %v != reference %v",
			step, got.Protocol, got.Degraded != nil, want.Degraded != nil)
	}
	if got.Degraded != nil {
		g, w := *got.Degraded, *want.Degraded
		if g.Schedulable != w.Schedulable ||
			!eqBits(g.Availability, w.Availability) || !eqBits(g.Losses, w.Losses) ||
			!eqBits(g.Recovery, w.Recovery) || !eqBits(g.Blocking, w.Blocking) ||
			!eqBits(g.TotalAllocation, w.TotalAllocation) || !eqBits(g.Capacity, w.Capacity) {
			t.Fatalf("step %d %s: degraded %+v != reference %+v", step, got.Protocol, g, w)
		}
	}
	if len(got.Streams) != len(want.Streams) {
		t.Fatalf("step %d %s: %d stream verdicts, reference %d",
			step, got.Protocol, len(got.Streams), len(want.Streams))
	}
	for i := range got.Streams {
		g, w := got.Streams[i], want.Streams[i]
		if g.ID != w.ID || g.Name != w.Name || g.Frames != w.Frames || g.Q != w.Q ||
			g.Schedulable != w.Schedulable ||
			!eqBits(g.PeriodMs, w.PeriodMs) || !eqBits(g.AugmentedLength, w.AugmentedLength) ||
			!eqBits(g.ResponseTime, w.ResponseTime) || !eqBits(g.Allocation, w.Allocation) ||
			!eqBits(g.WorstCaseResponse, w.WorstCaseResponse) {
			t.Fatalf("step %d %s stream %d: %+v != reference %+v", step, got.Protocol, i, g, w)
		}
	}
}

// TestDifferentialEditScripts is the acceptance harness: ≥1000 random
// edit scripts per protocol, every step compared bitwise against full
// re-analysis. The first 1000 seeds run all three protocols at once;
// the rest rotate narrower protocol subsets, bandwidths, and fault
// specs.
func TestDifferentialEditScripts(t *testing.T) {
	scripts := 1250
	if testing.Short() {
		scripts = 120
	}
	for seed := 0; seed < scripts; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		nops := 8 + rng.Intn(28)
		data := make([]byte, 3+5*nops)
		rng.Read(data)
		if seed < 1000 {
			data[0] = 0 // all three protocols
		}
		data[1] = byte(seed % len(diffBWs))
		replayEditScript(t, data)
		if t.Failed() {
			t.Fatalf("seed %d failed (script %x)", seed, data)
		}
	}
}

// TestDifferentialEmptyAndRefill pins the empty-ring boundary: verdicts
// stay reference-identical as a ring drains to zero streams and refills.
func TestDifferentialEmptyAndRefill(t *testing.T) {
	for _, spec := range diffFaultSpecs() {
		cfg := Config{BandwidthMbps: 16, FaultSpec: spec}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mirror []SnapshotStream
		add := func(s wire.StreamSpec) {
			id, _, err := eng.Add(s)
			if err != nil {
				t.Fatal(err)
			}
			mirror = append(mirror, SnapshotStream{ID: id, StreamSpec: s})
		}
		for cycle := 0; cycle < 3; cycle++ {
			add(wire.StreamSpec{Name: "x", PeriodMs: 10, LengthBits: 4096})
			add(wire.StreamSpec{Name: "y", PeriodMs: 5, LengthBits: 1024})
			checkStep(t, cfg, eng, mirror, cycle)
			for len(mirror) > 0 {
				if _, err := eng.Remove(mirror[0].ID); err != nil {
					t.Fatal(err)
				}
				mirror = mirror[1:]
				checkStep(t, cfg, eng, mirror, cycle)
			}
		}
	}
}
