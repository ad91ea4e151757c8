package tokensim

import (
	"math/rand"
	"testing"

	"ringsched/internal/core"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/ring"
)

// TestSimulatorAllocationsIndependentOfHorizon holds the event loop to
// zero allocations per event: with saturated asynchronous traffic,
// simulating four times as long may allocate at most a few more objects —
// the queues and the 802.5 priority stacks reaching their bounded depths —
// never a number that grows with the events fired. It runs a loaded
// 20-station ring and, without -short, goldenLargeSet's lightly loaded
// 1000-station rings, whose horizons start past the queues that the
// synchronized release of 1000 messages builds.
func TestSimulatorAllocationsIndependentOfHorizon(t *testing.T) {
	const slack = 16
	gen := message.PaperGenerator()
	gen.Streams = 20
	small, err := gen.Draw(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	scaled := func(set message.Set, util, bw float64) message.Set {
		m, err := set.ScaleToUtilization(util, bw)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, plant := range []struct {
		stations           int
		pdpSet, ttpSet     message.Set
		pdpBW, ttpBW, from float64
	}{
		{20, scaled(small, 0.3, 16e6), scaled(small, 0.4, 16e6), 16e6, 16e6, 0.5},
		{largeStations, goldenLargeSet(t, 0.005, 16e6), goldenLargeSet(t, 0.1, 100e6), 16e6, 100e6, 2},
	} {
		n := plant.stations
		if testing.Short() && n > 20 {
			continue
		}
		workload := func(set message.Set) Workload {
			w, err := NewWorkload(set, n, PhasingSynchronized, nil)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		net := ring.IEEE8025(plant.pdpBW).WithStations(n)
		pdpW := workload(plant.pdpSet)
		ttpA := core.NewTTP(plant.ttpBW)
		ttpA.Net = ttpA.Net.WithStations(n)
		ttp, err := NewTTPSimFromAnalysis(ttpA, plant.ttpSet, workload(plant.ttpSet))
		if err != nil {
			t.Fatal(err)
		}
		ttp.AsyncSaturated = true

		sims := []struct {
			name string
			run  func(h float64) (Result, error)
		}{
			{"pdp", func(h float64) (Result, error) {
				return PDPSim{
					Net: net, Frame: frame.PaperSpec(), Variant: core.Modified8025,
					Workload: pdpW, AsyncSaturated: true, Horizon: h,
				}.Run()
			}},
			{"ttp", func(h float64) (Result, error) {
				c := ttp
				c.Horizon = h
				return c.Run()
			}},
			{"reservation", func(h float64) (Result, error) {
				res, err := ReservationSim{
					Net: net, Frame: frame.PaperSpec(), Workload: pdpW,
					PriorityLevels: 8, AsyncSaturated: true, Horizon: h,
				}.Run()
				return res.Result, err
			}},
		}
		for _, s := range sims {
			allocs := func(h float64) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := s.run(h); err != nil {
						t.Fatalf("%s on %d stations: %v", s.name, n, err)
					}
				})
			}
			short, long := allocs(plant.from), allocs(4*plant.from)
			if long-short > slack {
				t.Errorf("%s on %d stations: %.0f allocations over %gs, %.0f over %gs: the event loop allocates",
					s.name, n, short, plant.from, long, 4*plant.from)
			}
			t.Logf("%s on %d stations: %.0f allocations over %gs, %.0f over %gs", s.name, n, short, plant.from, long, 4*plant.from)
		}
	}
}
