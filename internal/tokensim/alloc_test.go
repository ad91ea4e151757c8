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
// zero allocations per event: on a loaded 20-station ring with saturated
// asynchronous traffic, simulating four times as long may allocate at most
// a few more objects — the queues and the 802.5 priority stacks reaching
// their bounded depths — never a number that grows with the events fired.
func TestSimulatorAllocationsIndependentOfHorizon(t *testing.T) {
	const stations, bw, horizon, slack = 20, 16e6, 0.5, 16
	gen := message.PaperGenerator()
	gen.Streams = stations
	set, err := gen.Draw(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	scaled := func(util float64) Workload {
		m, err := set.ScaleToUtilization(util, bw)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(m, stations, PhasingSynchronized, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	net := ring.IEEE8025(bw).WithStations(stations)
	pdpW := scaled(0.3)
	ttpA := core.NewTTP(bw)
	ttpA.Net = ttpA.Net.WithStations(stations)
	ttpW := scaled(0.4)
	ttp, err := NewTTPSimFromAnalysis(ttpA, ttpW.Streams, ttpW)
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
					t.Fatalf("%s: %v", s.name, err)
				}
			})
		}
		short, long := allocs(horizon), allocs(4*horizon)
		if long-short > slack {
			t.Errorf("%s: %.0f allocations over %gs, %.0f over %gs: the event loop allocates",
				s.name, short, horizon, long, 4*horizon)
		}
		t.Logf("%s: %.0f allocations over %gs, %.0f over %gs", s.name, short, horizon, long, 4*horizon)
	}
}
