package tokensim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sim_golden.json with current digests")

// runDigest is a SHA-256 over one simulator run: every trace event (kind,
// station, and the bits of its time, duration and detail), the engine's
// final event count, and every field of the result.
type runDigest struct {
	h      hash.Hash
	buf    [40]byte
	events int
}

func newRunDigest() *runDigest { return &runDigest{h: sha256.New()} }

// Trace implements Tracer.
func (d *runDigest) Trace(e TraceEvent) {
	binary.LittleEndian.PutUint64(d.buf[0:], uint64(e.Kind))
	binary.LittleEndian.PutUint64(d.buf[8:], uint64(e.Station))
	binary.LittleEndian.PutUint64(d.buf[16:], math.Float64bits(e.Time))
	binary.LittleEndian.PutUint64(d.buf[24:], math.Float64bits(e.Duration))
	binary.LittleEndian.PutUint64(d.buf[32:], math.Float64bits(e.Detail))
	d.h.Write(d.buf[:])
}

func (d *runDigest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[0:], v)
	d.h.Write(d.buf[:8])
}

// value hashes every leaf of a result value: floats by their bits, so a
// one-ulp drift anywhere changes the digest.
func (d *runDigest) value(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(t, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		d.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(t, v.Index(i))
		}
	case reflect.String:
		d.u64(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.Bool:
		b := uint64(0)
		if v.Bool() {
			b = 1
		}
		d.u64(b)
	default:
		t.Fatalf("digest: unsupported result field kind %s", v.Kind())
	}
}

func (d *runDigest) sum(t *testing.T, res any) string {
	d.u64(uint64(d.events))
	d.value(t, reflect.ValueOf(res))
	return hex.EncodeToString(d.h.Sum(nil))
}

// resultDigest is the digest of a run that emitted no trace events: its
// event count and result alone.
func resultDigest(t *testing.T, events int, res any) string {
	d := newRunDigest()
	d.events = events
	return d.sum(t, res)
}

// goldenCase is one simulator configuration of the golden matrix. run
// executes it under ctx with the given tracer (ignored by the topology,
// which takes none) and progress observer.
type goldenCase struct {
	name string
	// short keeps the case under -short: one per simulator.
	short bool
	run   func(ctx context.Context, tr Tracer, obs progress.Progress) (any, error)
}

// goldenSet loads a 20-station 4 Mbps 802.5 ring to about 70 % payload
// utilization, so queues build behind saturated asynchronous traffic and
// the fault models produce misses. Its twelve streams outnumber the
// reservation MAC's 3 and 8 priority levels.
func goldenSet() message.Set {
	return message.Set{
		{Name: "s1", Period: 2e-3, LengthBits: 1024},
		{Name: "s2", Period: 3e-3, LengthBits: 1200},
		{Name: "s3", Period: 5e-3, LengthBits: 1536},
		{Name: "s4", Period: 7e-3, LengthBits: 2048},
		{Name: "s5", Period: 8e-3, LengthBits: 1800},
		{Name: "s6", Period: 12e-3, LengthBits: 3000},
		{Name: "s7", Period: 16e-3, LengthBits: 2048},
		{Name: "s8", Period: 20e-3, LengthBits: 4096},
		{Name: "s9", Period: 25e-3, LengthBits: 2500},
		{Name: "s10", Period: 30e-3, LengthBits: 6000},
		{Name: "s11", Period: 40e-3, LengthBits: 4096},
		{Name: "s12", Period: 50e-3, LengthBits: 5000},
	}
}

// goldenFaults are the fault models every single-ring case runs under.
var goldenFaults = []struct{ name, spec string }{
	{"clean", ""},
	{"loss", "loss:p=0.02"},
	{"loss+gilbert", "loss:p=0.02+gilbert:pbad=0.5,burst=4,gap=100"},
	{"loss+crash", "loss:p=0.02+crash:rate=4,down=10ms,bypass=500us"},
}

func goldenFaultModel(t *testing.T, spec string) *Faults {
	if spec == "" {
		return nil
	}
	m, err := faults.ParseModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Seed = 11
	return &m
}

// goldenLightSet is goldenSet at half the rate (every period doubled). The
// standard protocol pays a token walk per frame and with synchronized
// phasing keeps the ring busy under goldenSet, so its asynchronous filler
// would never run; it runs these cases on this set instead.
func goldenLightSet() message.Set {
	set := goldenSet()
	for i := range set {
		set[i].Period *= 2
	}
	return set
}

func goldenWorkload(t *testing.T, set message.Set, stations int, phasing Phasing) Workload {
	w, err := NewWorkload(set, stations, phasing, rand.New(rand.NewSource(1993)))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func onOff(b bool, on, off string) string {
	if b {
		return on
	}
	return off
}

func goldenCases(t *testing.T) []goldenCase {
	const stations = 20
	net := ring.IEEE8025(4e6).WithStations(stations)
	var cases []goldenCase
	for _, fm := range goldenFaults {
		lastFault := fm.name == "loss+crash"
		for _, variant := range []core.Variant{core.Standard8025, core.Modified8025} {
			for _, pass := range []TokenPassModel{PassMeasured, PassAverageHalfTheta} {
				for _, async := range []bool{false, true} {
					for _, phasing := range []Phasing{PhasingSynchronized, PhasingRandom} {
						set := goldenSet()
						if variant == core.Standard8025 && phasing == PhasingSynchronized {
							set = goldenLightSet()
						}
						cfg := PDPSim{
							Net: net, Frame: frame.PaperSpec(), Variant: variant,
							Workload:       goldenWorkload(t, set, stations, phasing),
							AsyncSaturated: async, Horizon: 0.5, TokenPass: pass,
							Faults: goldenFaultModel(t, fm.spec),
						}
						cases = append(cases, goldenCase{
							name: fmt.Sprintf("pdp/%s/%s/%s/%s/%s", variant, pass,
								onOff(async, "async", "sync-only"),
								onOff(phasing == PhasingRandom, "random", "synchronized"), fm.name),
							short: lastFault && variant == core.Modified8025 && pass == PassMeasured &&
								async && phasing == PhasingRandom,
							run: func(ctx context.Context, tr Tracer, obs progress.Progress) (any, error) {
								cfg.Tracer, cfg.Progress = tr, obs
								return cfg.RunContext(ctx)
							},
						})
					}
				}
			}
		}

		ttpA := core.NewTTP(16e6)
		ttpA.Net = ttpA.Net.WithStations(stations)
		for _, async := range []bool{false, true} {
			cfg, err := NewTTPSimFromAnalysis(ttpA, goldenSet(), goldenWorkload(t, goldenSet(), stations, PhasingSynchronized))
			if err != nil {
				t.Fatal(err)
			}
			cfg.AsyncSaturated, cfg.Horizon = async, 0.2
			cfg.Faults = goldenFaultModel(t, fm.spec)
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("ttp/%s/%s", onOff(async, "async", "sync-only"), fm.name),
				short: lastFault && async,
				run: func(ctx context.Context, tr Tracer, obs progress.Progress) (any, error) {
					cfg.Tracer, cfg.Progress = tr, obs
					return cfg.RunContext(ctx)
				},
			})
		}

		for _, levels := range []int{0, 3, 8} {
			for _, async := range []bool{false, true} {
				cfg := ReservationSim{
					Net: net, Frame: frame.PaperSpec(),
					Workload:       goldenWorkload(t, goldenSet(), stations, PhasingSynchronized),
					PriorityLevels: levels, AsyncSaturated: async, Horizon: 0.15,
					Faults: goldenFaultModel(t, fm.spec),
				}
				cases = append(cases, goldenCase{
					name:  fmt.Sprintf("reservation/%d-levels/%s/%s", levels, onOff(async, "async", "sync-only"), fm.name),
					short: lastFault && levels == 8 && async,
					run: func(ctx context.Context, tr Tracer, obs progress.Progress) (any, error) {
						cfg.Tracer, cfg.Progress = tr, obs
						return cfg.RunContext(ctx)
					},
				})
			}
		}
	}
	cases = append(cases, goldenLargeCases(t)...)
	for _, tc := range []struct {
		name  string
		short bool
		sim   TopologySim
	}{
		{"topology/line", true, TopologySim{Topology: simLineTopology(), AsyncSaturated: true}},
		{"topology/line/sync-only", false, TopologySim{Topology: simLineTopology()}},
		{"topology/line/theta/2", false, TopologySim{
			Topology: simLineTopology(), AsyncSaturated: true, TokenPass: PassAverageHalfTheta,
		}},
		{"topology/bridge-backlog", false, TopologySim{Topology: simBridgeTopology(0), AsyncSaturated: true}},
		{"topology/bridge-drop", false, TopologySim{Topology: simBridgeTopology(40e3), AsyncSaturated: true}},
	} {
		cfg := tc.sim
		cfg.Horizon = 0.5
		cases = append(cases, goldenCase{
			name:  tc.name,
			short: tc.short,
			run: func(ctx context.Context, _ Tracer, obs progress.Progress) (any, error) {
				cfg.Progress = obs
				return cfg.RunContext(ctx)
			},
		})
	}
	return cases
}

// largeStations is the station count of the large golden cases, the
// paper's 100 stations times ten.
const largeStations = 1000

// goldenLargeFaults are the fault models of the large cases. goldenFaults'
// rates are per station and per token pass, and at 1000 stations they
// would hold the ring in bypass or recovery for most of the horizon; this
// model keeps about fifty stations down at a time and costs the ring a
// few token losses.
var goldenLargeFaults = []struct{ name, spec string }{
	{"clean", ""},
	{"loss+crash", "loss:p=1e-4+crash:rate=1,down=50ms,bypass=10us"},
}

// goldenLargeSet is one fixed draw of the paper generator at 1000 streams,
// scaled to utilization util at bw. An 802.5 frame holds a 1000-station
// ring for at least its latency Θ ≈ 0.7 ms, so at the paper's 100 ms mean
// period the messages alone would ask for ten Θ per Θ; the mean period is
// stretched to 5 s, which the ring carries at about a third of its frame
// rate. Periods are rounded to 10 ms, so that most share their period
// with another stream and the tie-break by station index decides among
// them.
func goldenLargeSet(t *testing.T, util, bw float64) message.Set {
	gen := message.PaperGenerator()
	gen.Streams, gen.MeanPeriod = largeStations, 5
	set, err := gen.Draw(rand.New(rand.NewSource(1000)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range set {
		set[i].Period = math.Round(set[i].Period*100) / 100
	}
	set, err = set.ScaleToUtilization(util, bw)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// goldenLargeCases runs each MAC on a 1000-station ring at light load with
// saturated asynchronous traffic, clean and faulted, from the critical
// instant and randomly phased: the 802.5 MACs at 0.5 % payload
// utilization of 16 Mbps, FDDI at 10 % of 100 Mbps.
func goldenLargeCases(t *testing.T) []goldenCase {
	net := ring.IEEE8025(16e6).WithStations(largeStations)
	set := goldenLargeSet(t, 0.005, 16e6)
	ttpA := core.NewTTP(100e6)
	ttpA.Net = ttpA.Net.WithStations(largeStations)
	ttpSet := goldenLargeSet(t, 0.1, 100e6)
	var cases []goldenCase
	for _, fm := range goldenLargeFaults {
		for _, phasing := range []Phasing{PhasingSynchronized, PhasingRandom} {
			suffix := onOff(phasing == PhasingRandom, "random", "synchronized") + "/" + fm.name
			pdp := PDPSim{
				Net: net, Frame: frame.PaperSpec(), Variant: core.Modified8025,
				Workload:       goldenWorkload(t, set, largeStations, phasing),
				AsyncSaturated: true, Horizon: 3, Faults: goldenFaultModel(t, fm.spec),
			}
			ttp, err := NewTTPSimFromAnalysis(ttpA, ttpSet, goldenWorkload(t, ttpSet, largeStations, phasing))
			if err != nil {
				t.Fatal(err)
			}
			ttp.AsyncSaturated, ttp.Horizon = true, 1
			ttp.Faults = goldenFaultModel(t, fm.spec)
			res := ReservationSim{
				Net: net, Frame: frame.PaperSpec(),
				Workload:       goldenWorkload(t, set, largeStations, phasing),
				PriorityLevels: 8, AsyncSaturated: true, Horizon: 0.5,
				Faults: goldenFaultModel(t, fm.spec),
			}
			cases = append(cases,
				goldenCase{
					name: "pdp-1000/" + suffix,
					run: func(ctx context.Context, tr Tracer, obs progress.Progress) (any, error) {
						pdp.Tracer, pdp.Progress = tr, obs
						return pdp.RunContext(ctx)
					},
				},
				goldenCase{
					name: "ttp-1000/" + suffix,
					run: func(ctx context.Context, tr Tracer, obs progress.Progress) (any, error) {
						ttp.Tracer, ttp.Progress = tr, obs
						return ttp.RunContext(ctx)
					},
				},
				goldenCase{
					name: "reservation-1000/" + suffix,
					run: func(ctx context.Context, tr Tracer, obs progress.Progress) (any, error) {
						res.Tracer, res.Progress = tr, obs
						return res.RunContext(ctx)
					},
				})
		}
	}
	return cases
}

// simBridgeTopology joins two 16 Mbps 802.5 rings by a 2 Mbps bridge and
// sends a 3 Mbps flow across it, so the bridge's store-and-forward queue
// grows all run long. A positive buffer (in bits) caps that queue and
// drops the messages that overflow it.
func simBridgeTopology(buffer float64) topology.Topology {
	return topology.Topology{
		Nodes: []topology.Node{
			{Name: "a", Protocol: topology.Modified8025, Ring: ring.IEEE8025(16e6)},
			{Name: "b", Protocol: topology.Standard8025, Ring: ring.IEEE8025(16e6)},
		},
		Bridges: []topology.Bridge{{A: "a", B: "b", Latency: 100e-6, RateBPS: 2e6, BufferBits: buffer}},
		Flows:   []topology.Flow{{Name: "bulk", Src: "a", Dst: "b", Period: 10e-3, LengthBits: 30e3}},
	}
}

// TestSimulatorGoldenDigest pins every simulator's sample path bit for
// bit: each case's digest covers all trace events, the event count and
// every result field. Any change to the engine, the MACs or their
// arithmetic that moves a single event or ulp is caught here. Refresh with
// `go test ./internal/tokensim -run TestSimulatorGoldenDigest -update` and
// review the diff; -short runs one case per simulator.
func TestSimulatorGoldenDigest(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases(t) {
		if testing.Short() && !c.short {
			continue
		}
		d := newRunDigest()
		var tr Tracer = d
		obs := progress.Funcs{OnSimulatorAdvanced: func(events int, _ float64) { d.events = events }}
		res, err := c.run(context.Background(), tr, obs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.events == 0 {
			t.Fatalf("%s: fired no events", c.name)
		}
		got[c.name] = d.sum(t, res)

		// Untraced, the run must take the same path: the same event count
		// and the same result, bit for bit.
		u := newRunDigest()
		obs = progress.Funcs{OnSimulatorAdvanced: func(events int, _ float64) { u.events = events }}
		ures, err := c.run(context.Background(), nil, obs)
		if err != nil {
			t.Fatalf("%s untraced: %v", c.name, err)
		}
		if traced, untraced := resultDigest(t, d.events, res), u.sum(t, ures); traced != untraced {
			t.Errorf("%s: untraced run fired %d events (traced %d) and its result differs",
				c.name, u.events, d.events)
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	// Every case must exercise a distinct sample path; two equal digests
	// mean a matrix dimension has no effect there.
	byDigest := map[string]string{}
	for _, name := range names {
		if other, ok := byDigest[got[name]]; ok {
			t.Fatalf("%s and %s have the same digest", other, name)
		}
		byDigest[got[name]] = name
	}

	golden := filepath.Join("testdata", "sim_golden.json")
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full matrix; drop -short")
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", golden, len(got))
		return
	}

	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("%d cases, golden has %d", len(got), len(want))
	}
	for _, name := range names {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: not in golden file", name)
		case got[name] != w:
			t.Errorf("%s: digest %s, golden %s", name, got[name], w)
		}
	}
}
