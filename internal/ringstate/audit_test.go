package ringstate

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"ringsched/internal/wire"
)

func TestAuditRecordsEdits(t *testing.T) {
	st := NewStore(0, 0)
	meta := EditMeta{TraceID: "cafe", Client: "tester", Time: time.Unix(100, 0)}
	ring, err := st.Create(Config{BandwidthMbps: 16}, []wire.StreamSpec{
		{Name: "seed", PeriodMs: 50, LengthBits: 8000},
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	v, id, _, err := ring.AddStream(0, wire.StreamSpec{Name: "a", PeriodMs: 20, LengthBits: 16000}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ring.ModifyStream(v, id, wire.StreamSpec{Name: "a", PeriodMs: 10, LengthBits: 16000}, meta); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ring.RemoveStream(0, id, meta); err != nil {
		t.Fatal(err)
	}

	h, err := ring.History()
	if err != nil {
		t.Fatal(err)
	}
	if h.RingID != ring.ID() || h.Version != 4 || h.Compacted != 0 {
		t.Fatalf("history header = %+v", h)
	}
	// Seed stream lives in the baseline, not the record stream.
	if len(h.Baseline) != 1 || h.Baseline[0].Name != "seed" {
		t.Fatalf("baseline = %+v", h.Baseline)
	}
	wantOps := []string{OpCreate, OpAdd, OpModify, OpRemove}
	if len(h.Records) != len(wantOps) {
		t.Fatalf("%d records, want %d", len(h.Records), len(wantOps))
	}
	for i, rec := range h.Records {
		if rec.Op != wantOps[i] {
			t.Fatalf("record %d op = %q, want %q", i, rec.Op, wantOps[i])
		}
		if rec.Seq != uint64(i+1) || rec.Version != uint64(i+1) {
			t.Fatalf("record %d seq=%d version=%d", i, rec.Seq, rec.Version)
		}
		if rec.VersionBefore != rec.Version-1 {
			t.Fatalf("record %d versionBefore=%d version=%d", i, rec.VersionBefore, rec.Version)
		}
		if rec.TraceID != "cafe" || rec.Client != "tester" {
			t.Fatalf("record %d meta = %q/%q", i, rec.TraceID, rec.Client)
		}
		if !rec.Time.Equal(time.Unix(100, 0).UTC()) {
			t.Fatalf("record %d time = %v", i, rec.Time)
		}
	}
	if h.Records[1].Stream == nil || h.Records[1].Stream.PeriodMs != 20 {
		t.Fatalf("add record params = %+v", h.Records[1].Stream)
	}
	if h.Records[2].Stream == nil || h.Records[2].Stream.PeriodMs != 10 {
		t.Fatalf("modify record params = %+v", h.Records[2].Stream)
	}
	if h.Records[3].StreamID != id {
		t.Fatalf("remove record streamId = %d, want %d", h.Records[3].StreamID, id)
	}

	// The trail is part of the wire surface: it must marshal.
	if _, err := json.Marshal(h); err != nil {
		t.Fatalf("marshal history: %v", err)
	}
}

func TestAuditRecordsVerdictFlips(t *testing.T) {
	st := NewStore(0, 0)
	ring, err := st.Create(Config{BandwidthMbps: 1, Protocols: []string{"modified-802.5"}}, nil, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	// An empty ring is schedulable; loading it far past capacity must
	// flip the ring verdict, and the flip must land in the audit record.
	v := uint64(0)
	var flipped bool
	for i := 0; i < 40 && !flipped; i++ {
		nv, _, _, err := ring.AddStream(v, wire.StreamSpec{PeriodMs: 2, LengthBits: 100000}, EditMeta{})
		if err != nil {
			t.Fatal(err)
		}
		v = nv
		h, err := ring.History()
		if err != nil {
			t.Fatal(err)
		}
		last := h.Records[len(h.Records)-1]
		for _, f := range last.Flips {
			if f.Was && !f.Now {
				flipped = true
			}
		}
	}
	if !flipped {
		t.Fatal("no audit record carried a schedulable→unschedulable flip")
	}
}

// replayHistory rebuilds a ring state from its audit trail alone:
// baseline adds, then the retained records, against a fresh engine.
func replayHistory(t *testing.T, h History) *Engine {
	t.Helper()
	eng, err := NewEngine(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]uint64{} // trail stream ID → replay engine ID
	for _, s := range h.Baseline {
		id, _, err := eng.Add(s.StreamSpec)
		if err != nil {
			t.Fatalf("replay baseline add: %v", err)
		}
		ids[s.ID] = id
	}
	for _, rec := range h.Records {
		switch rec.Op {
		case OpCreate:
		case OpAdd:
			id, _, err := eng.Add(*rec.Stream)
			if err != nil {
				t.Fatalf("replay add seq %d: %v", rec.Seq, err)
			}
			ids[rec.StreamID] = id
		case OpModify:
			if _, err := eng.Modify(ids[rec.StreamID], *rec.Stream); err != nil {
				t.Fatalf("replay modify seq %d: %v", rec.Seq, err)
			}
		case OpRemove:
			if _, err := eng.Remove(ids[rec.StreamID]); err != nil {
				t.Fatalf("replay remove seq %d: %v", rec.Seq, err)
			}
		default:
			t.Fatalf("unknown op %q", rec.Op)
		}
	}
	return eng
}

// assertVerdictsBitIdentical compares two verdict sets: ring-level
// numerics via Float64bits, per-stream verdicts as multisets ignoring
// the ring-assigned IDs and names (replay handles differ from original
// names; canonical-order ties have identical parameters, so the
// position multiset — and hence every numeric — matches).
func assertVerdictsBitIdentical(t *testing.T, want, got []wire.Verdict) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("verdict count %d vs %d", len(want), len(got))
	}
	f64 := func(v float64) uint64 { return math.Float64bits(v) }
	for i := range want {
		a, b := want[i], got[i]
		if a.Protocol != b.Protocol || a.Schedulable != b.Schedulable {
			t.Fatalf("protocol %d: %s/%v vs %s/%v", i, a.Protocol, a.Schedulable, b.Protocol, b.Schedulable)
		}
		ringScalars := [][2]float64{
			{a.Utilization, b.Utilization},
			{a.AugmentedUtilization, b.AugmentedUtilization},
			{a.Blocking, b.Blocking},
			{a.Theta, b.Theta},
			{a.FrameTime, b.FrameTime},
			{a.TTRT, b.TTRT},
			{a.Overhead, b.Overhead},
			{a.TotalAllocation, b.TotalAllocation},
			{a.Capacity, b.Capacity},
		}
		for j, pair := range ringScalars {
			if f64(pair[0]) != f64(pair[1]) {
				t.Fatalf("protocol %s scalar %d: %v vs %v", a.Protocol, j, pair[0], pair[1])
			}
		}
		if (a.Degraded == nil) != (b.Degraded == nil) {
			t.Fatalf("protocol %s degraded presence mismatch", a.Protocol)
		}
		if a.Degraded != nil {
			da, db := *a.Degraded, *b.Degraded
			if da.Schedulable != db.Schedulable ||
				f64(da.Availability) != f64(db.Availability) ||
				f64(da.Losses) != f64(db.Losses) ||
				f64(da.Recovery) != f64(db.Recovery) ||
				f64(da.Blocking) != f64(db.Blocking) ||
				f64(da.TotalAllocation) != f64(db.TotalAllocation) ||
				f64(da.Capacity) != f64(db.Capacity) {
				t.Fatalf("protocol %s degraded: %+v vs %+v", a.Protocol, da, db)
			}
		}
		key := func(sv wire.StreamVerdict) string {
			sv.ID, sv.Name = "", ""
			return fmt.Sprintf("%x %x %d %d %x %x %x %x %v",
				f64(sv.PeriodMs), f64(sv.AugmentedLength), sv.Frames, sv.Q,
				f64(sv.ResponseTime), f64(sv.Allocation), f64(sv.WorstCaseResponse),
				f64(sv.PeriodMs), sv.Schedulable)
		}
		ka := make([]string, len(a.Streams))
		kb := make([]string, len(b.Streams))
		for j := range a.Streams {
			ka[j] = key(a.Streams[j])
		}
		for j := range b.Streams {
			kb[j] = key(b.Streams[j])
		}
		sort.Strings(ka)
		sort.Strings(kb)
		if strings.Join(ka, "\n") != strings.Join(kb, "\n") {
			t.Fatalf("protocol %s per-stream verdict multiset mismatch:\n%v\nvs\n%v", a.Protocol, ka, kb)
		}
	}
}

func TestAuditCompactionReplaysToCurrentVerdicts(t *testing.T) {
	for _, faultSpec := range []string{"", "loss:p=1e-3"} {
		t.Run("fault="+faultSpec, func(t *testing.T) {
			st := NewStore(0, 0)
			st.SetAuditCap(8) // force heavy compaction
			ring, err := st.Create(Config{BandwidthMbps: 16, FaultSpec: faultSpec}, []wire.StreamSpec{
				{Name: "x", PeriodMs: 40, LengthBits: 12000},
				{Name: "y", PeriodMs: 40, LengthBits: 12000}, // canonical tie
			}, EditMeta{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			var live []uint64
			_, _, snap, _, _ := ring.State()
			for _, s := range snap {
				live = append(live, s.ID)
			}
			for i := 0; i < 100; i++ {
				s := wire.StreamSpec{
					Name:       fmt.Sprintf("s%d", i),
					PeriodMs:   float64(1+rng.Intn(50)) / 3, // non-representable thirds
					LengthBits: float64(1000 + rng.Intn(20000)),
				}
				switch op := rng.Intn(3); {
				case op == 0 || len(live) == 0:
					_, id, _, err := ring.AddStream(0, s, EditMeta{})
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				case op == 1:
					id := live[rng.Intn(len(live))]
					if _, _, err := ring.ModifyStream(0, id, s, EditMeta{}); err != nil {
						t.Fatal(err)
					}
				default:
					j := rng.Intn(len(live))
					if _, _, err := ring.RemoveStream(0, live[j], EditMeta{}); err != nil {
						t.Fatal(err)
					}
					live = append(live[:j], live[j+1:]...)
				}
			}
			h, err := ring.History()
			if err != nil {
				t.Fatal(err)
			}
			if h.Compacted == 0 || len(h.Records) > 8 {
				t.Fatalf("expected compaction: compacted=%d retained=%d", h.Compacted, len(h.Records))
			}
			eng := replayHistory(t, h)
			_, _, _, want, err := ring.State()
			if err != nil {
				t.Fatal(err)
			}
			assertVerdictsBitIdentical(t, want, eng.Verdicts())
		})
	}
}

func TestHistoryScriptDump(t *testing.T) {
	st := NewStore(0, 0)
	st.SetAuditCap(4)
	ring, err := st.Create(Config{BandwidthMbps: 16, FaultSpec: "loss:p=1e-3"}, []wire.StreamSpec{
		{Name: "seed", PeriodMs: 1.0 / 3, LengthBits: 8000},
	}, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	v, id, _, err := ring.AddStream(0, wire.StreamSpec{PeriodMs: 20, LengthBits: 16000}, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ring.ModifyStream(v, id, wire.StreamSpec{PeriodMs: 10, LengthBits: 16000}, EditMeta{}); err != nil {
		t.Fatal(err)
	}
	h, err := ring.History()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	h.Script(&b)
	out := b.String()
	for _, want := range []string{
		"# ring " + ring.ID() + " history (version 3)",
		"# bandwidth-mbps: 16",
		"# fault-model: loss:p=0.001",
		"add s1 " + formatMs(1.0/3) + " 8000",
		fmt.Sprintf("add s%d 20 16000", id),
		fmt.Sprintf("modify s%d 10 16000", id),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("script dump missing %q:\n%s", want, out)
		}
	}
	// The shortest-round-trip float must survive a parse.
	var back float64
	if _, err := fmt.Sscanf(formatMs(1.0/3), "%g", &back); err != nil || back != 1.0/3 {
		t.Fatalf("float round-trip: %v %v", back, err)
	}
}

// TestAuditRingBufferOrder holds the ring-buffer log to a plain shifting
// one: after every append, at every fill level and wrap position, the
// retained records (oldest first), the folded baseline and the counters
// are the same.
func TestAuditRingBufferOrder(t *testing.T) {
	const cap = 5
	a := newAuditLog(cap)
	var ref []AuditRecord
	refBaseline := map[uint64]wire.StreamSpec{}
	ops := []string{OpAdd, OpModify, OpRemove}
	for i := 0; i < 4*cap+3; i++ {
		s := wire.StreamSpec{PeriodMs: float64(i + 1), LengthBits: 1000}
		rec := AuditRecord{Version: uint64(i + 1), Op: ops[i%3], StreamID: uint64(i % 4), Stream: &s}
		a.append(rec)
		rec.Seq = uint64(i + 1)
		if len(ref) == cap {
			switch old := ref[0]; old.Op {
			case OpAdd, OpModify:
				refBaseline[old.StreamID] = *old.Stream
			case OpRemove:
				delete(refBaseline, old.StreamID)
			}
			ref = ref[1:]
		}
		ref = append(ref, rec)
		got := a.oldestFirst()
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("after %d appends: records %v, want %v", i+1, got, ref)
		}
		if fmt.Sprint(a.baseline) != fmt.Sprint(refBaseline) || a.compacted != uint64(i+1-len(ref)) || a.seq != uint64(i+1) {
			t.Fatalf("after %d appends: baseline %v compacted %d seq %d, want %v %d %d",
				i+1, a.baseline, a.compacted, a.seq, refBaseline, i+1-len(ref), i+1)
		}
	}
}

func BenchmarkAuditAppend(b *testing.B) {
	a := newAuditLog(DefaultRingAudit)
	s := wire.StreamSpec{PeriodMs: 10, LengthBits: 8000}
	rec := AuditRecord{
		VersionBefore: 1, Version: 2, Op: OpAdd, StreamID: 3,
		Stream: &s, Reprobed: 2, Time: time.Unix(0, 0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.VersionBefore++
		rec.Version++
		a.append(rec)
	}
}
