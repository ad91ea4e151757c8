package tokensim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ringsched/internal/core"
	"ringsched/internal/frame"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
)

// simKnobs is one point of the simulators' configuration space on the
// golden plant: the station count, workload and horizon all three
// simulators share, the TTP timer settings and the reservation MAC's
// priority levels.
type simKnobs struct {
	stations    int
	workload    Workload
	horizon     float64
	async       bool
	ttrt        float64
	allocations []float64
	levels      int
	maxEvents   int
}

// goldenKnobs is a valid configuration: the golden set, synchronized, on
// its 20-station plant with the Theorem 5.1 TTRT and allocations, over a
// short horizon.
func goldenKnobs(t *testing.T) simKnobs {
	const stations = 20
	w := goldenWorkload(t, goldenSet(), stations, PhasingSynchronized)
	ttp, err := NewTTPSimFromAnalysis(goldenTTP(stations), goldenSet(), w)
	if err != nil {
		t.Fatal(err)
	}
	return simKnobs{
		stations: stations, workload: w, horizon: 0.02, async: true,
		ttrt: ttp.TTRT, allocations: ttp.Allocations, levels: 8, maxEvents: 20000,
	}
}

// goldenTTP is the golden TTP analyzer: 16 Mbps FDDI at the given station
// count.
func goldenTTP(stations int) core.TTP {
	a := core.NewTTP(16e6)
	a.Net = a.Net.WithStations(stations)
	return a
}

var simNames = []string{"pdp", "ttp", "reservation"}

// run runs the named simulator on k.
func (k simKnobs) run(name string) (Result, error) {
	net := ring.IEEE8025(4e6).WithStations(k.stations)
	switch name {
	case "pdp":
		return PDPSim{
			Net: net, Frame: frame.PaperSpec(), Variant: core.Modified8025, Workload: k.workload,
			AsyncSaturated: k.async, Horizon: k.horizon, MaxEvents: k.maxEvents,
		}.Run()
	case "ttp":
		a := goldenTTP(k.stations)
		return TTPSim{
			Net: a.Net, SyncFrame: a.SyncFrame, AsyncFrame: a.AsyncFrame,
			TTRT: k.ttrt, Allocations: k.allocations, Workload: k.workload,
			AsyncSaturated: k.async, Horizon: k.horizon, MaxEvents: k.maxEvents,
		}.Run()
	default:
		res, err := ReservationSim{
			Net: net, Frame: frame.PaperSpec(), Workload: k.workload, PriorityLevels: k.levels,
			AsyncSaturated: k.async, Horizon: k.horizon, MaxEvents: k.maxEvents,
		}.Run()
		return res.Result, err
	}
}

// TestSimulatorsRejectMalformedConfig runs each malformed configuration on
// every simulator it applies to: each must fail with its typed error
// instead of panicking, looping or running with a meaningless result. A
// +Inf offset stays legal: TopologySim's transit streams never
// self-release.
func TestSimulatorsRejectMalformedConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	setOffset := func(v float64) func(*simKnobs) {
		return func(k *simKnobs) { k.workload.Offsets[3] = v }
	}
	setAllocation := func(v float64) func(*simKnobs) {
		return func(k *simKnobs) { k.allocations[3] = v }
	}
	for _, tc := range []struct {
		name string
		sims []string // nil: all three
		edit func(*simKnobs)
		want error
	}{
		{"valid", nil, func(*simKnobs) {}, nil},
		{"default horizon", nil, func(k *simKnobs) { k.horizon, k.maxEvents = 0, 500 }, sim.ErrMaxEvents},
		{"NaN horizon", nil, func(k *simKnobs) { k.horizon = nan }, ErrBadHorizon},
		{"+Inf horizon", nil, func(k *simKnobs) { k.horizon = inf }, ErrBadHorizon},
		{"negative horizon", nil, func(k *simKnobs) { k.horizon = -1 }, ErrBadHorizon},
		// 2⁵⁴ periods of the fastest stream (2 ms), every stream first
		// released at 2⁴⁵ s, where adding 2 ms rounds back to the same
		// time: stationState.release would spin there, and PDP's ring,
		// idle without asynchronous traffic, reaches it in one step.
		{"horizon past 2^53 periods", nil, func(k *simKnobs) {
			k.horizon, k.async = math.Ldexp(2e-3, 54), false
			for i := range k.workload.Offsets {
				k.workload.Offsets[i] = math.Ldexp(1, 45)
			}
		}, ErrBadHorizon},
		{"offsets shorter than streams", nil, func(k *simKnobs) {
			k.workload.Offsets = k.workload.Offsets[:len(k.workload.Offsets)-1]
		}, ErrBadOffsets},
		{"more streams than stations", nil, func(k *simKnobs) { k.stations = 4 }, ErrTooManyStreams},
		{"NaN offset", nil, setOffset(nan), ErrBadOffsets},
		{"negative offset", nil, setOffset(-1e-3), ErrBadOffsets},
		{"+Inf offset", nil, setOffset(inf), nil},
		{"+Inf TTRT", []string{"ttp"}, func(k *simKnobs) { k.ttrt = inf }, ErrBadTTRT},
		{"NaN TTRT", []string{"ttp"}, func(k *simKnobs) { k.ttrt = nan }, ErrBadTTRT},
		{"TTRT longer than the horizon", []string{"ttp"}, func(k *simKnobs) { k.ttrt = 2 * k.horizon }, ErrBadTTRT},
		{"subnormal TTRT", []string{"ttp"}, func(k *simKnobs) { k.ttrt = 5e-324 }, ErrBadTTRT},
		// 2⁵⁴ asynchronous frames: TTRT − Fasync == TTRT, so the holding
		// time would never run out. The periods stretch with the horizon
		// so that only the TTRT is at fault.
		{"TTRT past 2^53 asynchronous frames", []string{"ttp"}, func(k *simKnobs) {
			a := goldenTTP(k.stations)
			k.ttrt = math.Ldexp(a.AsyncFrame.Time(a.Net.BandwidthBPS), 54)
			k.horizon = k.ttrt
			for i := range k.workload.Streams {
				k.workload.Streams[i].Period = k.ttrt / 4
			}
		}, ErrBadTTRT},
		{"allocation per stream", []string{"ttp"}, func(k *simKnobs) {
			k.allocations = k.allocations[:len(k.allocations)-1]
		}, ErrBadAllocations},
		{"NaN allocation", []string{"ttp"}, setAllocation(nan), ErrBadAllocations},
		{"negative allocation", []string{"ttp"}, setAllocation(-1e-6), ErrBadAllocations},
		{"+Inf allocation", []string{"ttp"}, setAllocation(inf), ErrBadAllocations},
		{"negative priority levels", []string{"reservation"}, func(k *simKnobs) { k.levels = -1 }, ErrBadPriorityLevels},
	} {
		sims := tc.sims
		if sims == nil {
			sims = simNames
		}
		for _, name := range sims {
			k := goldenKnobs(t)
			tc.edit(&k)
			res, err := k.run(name)
			switch {
			case tc.want == nil && err != nil:
				t.Errorf("%s on %s: %v", tc.name, name, err)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Errorf("%s on %s: err = %v, want %v (%d misses over %v s)",
					tc.name, name, err, tc.want, res.DeadlineMisses, res.Horizon)
			case err == nil:
				if path := nonFinite(reflect.ValueOf(res), "Result"); path != "" {
					t.Errorf("%s on %s: %s is not finite", tc.name, name, path)
				}
			}
		}
	}
}

// TestAdvances: a step advances every value up to a limit only when it
// exceeds half the gap above the limit. A step of exactly half the gap
// moves an odd-mantissa limit (the tie rounds up to even) but not the
// even value below it, so limit + step != limit alone does not suffice.
func TestAdvances(t *testing.T) {
	odd := math.Ldexp(1, 44) + math.Ldexp(1, -8) // the gap is 2⁻⁸
	for _, tc := range []struct {
		limit, step float64
		want        bool
	}{
		{0.02, 2e-3, true},
		{math.Ldexp(2e-3, 54), 2e-3, false},
		{odd, math.Ldexp(1, -9), false},
		{odd, math.Nextafter(math.Ldexp(1, -9), 1), true},
		{math.MaxFloat64, 1e300, false},
	} {
		if got := advances(tc.limit, tc.step); got != tc.want {
			t.Errorf("advances(%g, %g) = %v, want %v", tc.limit, tc.step, got, tc.want)
		}
	}
	if odd+math.Ldexp(1, -9) == odd || math.Ldexp(1, 44)+math.Ldexp(1, -9) != math.Ldexp(1, 44) {
		t.Error("the tie case rounds differently than assumed")
	}
}

// validationErrors are the typed errors the simulators' configuration
// checks return for the fields FuzzSimulatorConfig varies.
var validationErrors = []error{
	ErrBadHorizon, ErrBadOffsets, ErrTooManyStreams, ErrBadTTRT, ErrBadAllocations, ErrBadPriorityLevels,
}

// FuzzSimulatorConfig drives the three simulators' configuration boundary
// on the golden plant: horizon, one stream's offset, the stream count
// against the station count, priority levels, TTRT and allocations, each
// possibly NaN, ±Inf, negative or huge. No input may panic; every error
// must be a typed validation error or sim.ErrMaxEvents; every run that
// succeeds must report finite results and must have had a configuration
// the validation rules accept. MaxEvents bounds every run, and a finite
// horizon is capped at 50 ms (a long horizon is long work by design);
// TTRT and allocations pass through uncapped.
func FuzzSimulatorConfig(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	// horizon, offset, offset index, streams, stations, levels, TTRT, allocation, flags
	// (bit 0: drop the last offset; bit 1: drop the last allocation;
	// bit 2: saturated asynchronous traffic).
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(20), 8, 1e-3, 1e-4, uint8(4))
	f.Add(nan, 0.0, uint8(0), uint8(12), uint8(20), 8, 1e-3, 1e-4, uint8(4))
	f.Add(inf, 0.0, uint8(0), uint8(12), uint8(20), 8, 1e-3, 1e-4, uint8(4))
	f.Add(0.0, 0.0, uint8(0), uint8(12), uint8(20), 0, 1e-3, 1e-4, uint8(0))
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(20), 8, 1e-3, 1e-4, uint8(1))
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(3), 8, 1e-3, 1e-4, uint8(4))
	f.Add(0.02, nan, uint8(5), uint8(12), uint8(20), 8, 1e-3, 1e-4, uint8(4))
	f.Add(0.02, -1e-3, uint8(5), uint8(12), uint8(20), 8, 1e-3, 1e-4, uint8(4))
	f.Add(0.02, inf, uint8(5), uint8(12), uint8(20), 8, 1e-3, 1e-4, uint8(4))
	f.Add(0.02, 1e300, uint8(5), uint8(12), uint8(20), -3, 1e-3, 1e-4, uint8(4))
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(20), 8, inf, 1e-4, uint8(4))
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(20), 8, 5e-324, 1e-4, uint8(4))
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(20), 8, 0.02, 1e300, uint8(4))
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(20), 8, 1e-3, nan, uint8(2))
	f.Add(0.02, 0.0, uint8(0), uint8(12), uint8(20), 8, 1e-3, -inf, uint8(4))
	f.Add(1e300, 0.0, uint8(0), uint8(15), uint8(23), 1<<62, 1e-3, 5e-324, uint8(4))
	f.Fuzz(func(t *testing.T, horizon, offset float64, at, streams, stations uint8, levels int,
		ttrt, alloc float64, flags uint8) {
		const maxHorizon = 0.05
		if horizon > maxHorizon && !math.IsInf(horizon, 1) {
			horizon = maxHorizon
		}
		// Up to 16 streams, cycling the golden set, on 1..24 stations.
		n := 1 + int(streams)%16
		golden := goldenSet()
		k := simKnobs{
			stations:  1 + int(stations)%24,
			horizon:   horizon,
			async:     flags&4 != 0,
			ttrt:      ttrt,
			levels:    levels,
			maxEvents: 20000,
		}
		k.workload.Offsets = make([]float64, n)
		k.allocations = make([]float64, n)
		for i := range n {
			s := golden[i%len(golden)]
			s.Name = fmt.Sprintf("f%d", i)
			k.workload.Streams = append(k.workload.Streams, s)
			k.allocations[i] = alloc
		}
		k.workload.Offsets[int(at)%n] = offset
		if flags&1 != 0 {
			k.workload.Offsets = k.workload.Offsets[:n-1]
		}
		if flags&2 != 0 {
			k.allocations = k.allocations[:n-1]
		}
		offsetOK := flags&1 == 0 && (offset >= 0)
		shared := offsetOK && n <= k.stations && (horizon == 0 || horizon > 0 && !math.IsInf(horizon, 1))

		for _, name := range simNames {
			res, err := k.run(name)
			if err != nil {
				typed := errors.Is(err, sim.ErrMaxEvents)
				for _, v := range validationErrors {
					typed = typed || errors.Is(err, v)
				}
				if !typed {
					t.Fatalf("%s: untyped error %v", name, err)
				}
				continue
			}
			if path := nonFinite(reflect.ValueOf(res), "Result"); path != "" {
				t.Fatalf("%s: %s is not finite", name, path)
			}
			accepted := shared
			switch name {
			case "ttp":
				accepted = accepted && ttrt > 0 && ttrt <= res.Horizon && flags&2 == 0 &&
					alloc >= 0 && !math.IsInf(alloc, 1)
			case "reservation":
				accepted = accepted && levels >= 0
			}
			if !accepted {
				t.Fatalf("%s ran a configuration the rules reject: %+v", name, k)
			}
		}
	})
}

// nonFinite returns the path of the first NaN or infinite float64 in v,
// or "" when every float is finite.
func nonFinite(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := nonFinite(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p := nonFinite(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	}
	return ""
}
