package ringsched_test

import (
	"math"
	"math/rand"
	"testing"

	"ringsched"
)

// TestPublicAPIPipeline drives the whole library through the public facade
// only: draw a workload, analyze it under all three protocols, saturate
// it, and validate the result operationally.
func TestPublicAPIPipeline(t *testing.T) {
	const (
		n  = 12
		bw = 16e6
	)
	gen := ringsched.PaperGenerator()
	gen.Streams = n
	set, err := gen.Draw(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}

	mod := ringsched.NewModifiedPDP(bw)
	mod.Net = mod.Net.WithStations(n)
	std := ringsched.NewStandardPDP(bw)
	std.Net = std.Net.WithStations(n)
	ttp := ringsched.NewTTP(bw)
	ttp.Net = ttp.Net.WithStations(n)

	for _, a := range []ringsched.Analyzer{mod, std, ttp} {
		sat, err := ringsched.Saturate(set, a, bw, ringsched.SaturateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if !sat.Feasible {
			t.Fatalf("%s: infeasible", a.Name())
		}
		if sat.Utilization <= 0 || sat.Utilization > 1 {
			t.Errorf("%s: breakdown utilization %v outside (0,1]", a.Name(), sat.Utilization)
		}
	}

	// Operational validation via the facade simulators.
	sat, err := ringsched.Saturate(set, ttp, bw, ringsched.SaturateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	test := sat.Set.Scale(0.9)
	w, err := ringsched.NewWorkload(test, n, ringsched.PhasingSynchronized, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ringsched.NewTTPSimulation(ttp, test, w)
	if err != nil {
		t.Fatal(err)
	}
	sim.AsyncSaturated = true
	sim.Horizon = 1
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedAny() {
		t.Errorf("guaranteed set missed %d deadlines in simulation", res.DeadlineMisses)
	}
}

func TestFacadeConstructors(t *testing.T) {
	if got := ringsched.Mbps(100); got != 100e6 {
		t.Errorf("Mbps(100) = %v", got)
	}
	if p := ringsched.IEEE8025Plant(4e6); p.Stations != 100 || p.BitDelayPerStation != 4 {
		t.Errorf("IEEE8025Plant = %+v", p)
	}
	if p := ringsched.FDDIPlant(100e6); p.BitDelayPerStation != 75 {
		t.Errorf("FDDIPlant = %+v", p)
	}
	if f := ringsched.PaperFrame(); f.InfoBits != 512 || f.OvhdBits != 112 {
		t.Errorf("PaperFrame = %+v", f)
	}
	if g := ringsched.PaperGenerator(); g.Streams != 100 {
		t.Errorf("PaperGenerator = %+v", g)
	}
	if e := ringsched.PaperEstimator(10, 1); e.Samples != 10 {
		t.Errorf("PaperEstimator = %+v", e)
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	all := ringsched.Experiments()
	if len(all) < 10 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	if _, err := ringsched.ExperimentByID("FIG1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ringsched.ExperimentByID("MISSING"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestPaperHeadlineOrdering is the repository's headline assertion: the
// protocol ordering of the paper's conclusion holds — PDP ahead in the
// low-bandwidth regime, TTP ahead at high bandwidth.
func TestPaperHeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo comparison skipped in -short mode")
	}
	est := ringsched.PaperEstimator(40, 1993)

	type point struct {
		bw       float64
		pdpLeads bool
	}
	for _, pt := range []point{{4e6, true}, {300e6, false}} {
		pdp, err := est.Estimate(ringsched.NewModifiedPDP(pt.bw), pt.bw)
		if err != nil {
			t.Fatal(err)
		}
		fddi, err := est.Estimate(ringsched.NewTTP(pt.bw), pt.bw)
		if err != nil {
			t.Fatal(err)
		}
		lead := pdp.Mean > fddi.Mean
		if lead != pt.pdpLeads {
			t.Errorf("at %.0f Mbps: PDP=%.4f FDDI=%.4f, want pdpLeads=%v",
				pt.bw/1e6, pdp.Mean, fddi.Mean, pt.pdpLeads)
		}
	}
}

func TestFacadeTaskSetAlias(t *testing.T) {
	ts := ringsched.TaskSet{
		{Cost: 1e-3, Period: 10e-3},
		{Cost: 2e-3, Period: 30e-3},
	}
	if u := ts.Utilization(); math.Abs(u-(0.1+2.0/30)) > 1e-12 {
		t.Errorf("Utilization = %v", u)
	}
}

// TestRMExactTestMatchesRTA: RMExactTest answers with the response-time
// analysis's verdict and first failure and no response times, including
// on a pair the float scheduling-point test used to reject (3·P₀/P₀
// rounds to 3.0000000000000004 there).
func TestRMExactTestMatchesRTA(t *testing.T) {
	for _, tc := range []struct {
		ts       ringsched.TaskSet
		blocking float64
		ok       bool
		fail     int
	}{
		{ringsched.TaskSet{
			{Cost: 0.1661624964311379, Period: 0.23382981277786247},
			{Cost: 0.14303959324145926, Period: 0.714197311513956},
		}, 0.022222222222222223, true, -1},
		{ringsched.TaskSet{{Cost: 60e-3, Period: 100e-3}, {Cost: 60e-3, Period: 140e-3}}, 0, false, 1},
	} {
		res, err := ringsched.RMExactTest(tc.ts, tc.blocking)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedulable != tc.ok || res.FirstFailure != tc.fail || res.ResponseTimes != nil {
			t.Errorf("RMExactTest(%v) = %+v, want schedulable=%v firstFailure=%d and no response times",
				tc.ts, res, tc.ok, tc.fail)
		}
		rta, err := ringsched.ResponseTimeAnalysis(tc.ts, tc.blocking)
		if err != nil {
			t.Fatal(err)
		}
		if rta.Schedulable != res.Schedulable || rta.FirstFailure != res.FirstFailure {
			t.Errorf("RTA (%v, %d) and RMExactTest (%v, %d) disagree",
				rta.Schedulable, rta.FirstFailure, res.Schedulable, res.FirstFailure)
		}
	}
	if _, err := ringsched.RMExactTest(nil, 0); err == nil {
		t.Error("RMExactTest accepted an empty task set")
	}
}
