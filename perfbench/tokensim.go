package main

import (
	"fmt"
	"math"
	"time"

	"ringsched"
)

// token-sim: one op runs one drawn set through the three simulators —
// PDPSimulation (modified 802.5), TTPSimulation (configured from the
// Theorem 5.1 analysis) and ReservationSimulation (8 priority levels) —
// on VAL-SIM's 20-station plant with saturated asynchronous traffic. It
// is the only workload on tokensim/sim; its timed part runs no serving
// code and one 20-stream TTP analysis per op.

const (
	simStations = 20
	simBW       = 16e6
	// VAL-SIM's margins: sets are simulated at these fractions of their
	// analytic saturation.
	simMarginPDP = 0.95
	simMarginTTP = 0.90
	simLevels    = 8
)

var (
	// simHorizons (PDP, TTP, reservation), in seconds, are sized so the
	// three simulators fire comparable event counts at 16 Mbps (per
	// simulated second the reservation MAC fires about 7× the PDP's
	// events, the TTP about 0.4×); each also covers the set's longest
	// period.
	simHorizons = [3]float64{1.4, 3.4, 0.2}
	simNames    = [3]string{"pdp", "ttp", "res"}
	simSpans    = [3]string{"tokensim.pdp_run", "tokensim.ttp_run", "tokensim.res_run"}
	simRunUs    = [3]string{"tokensim.pdp_run_us", "tokensim.ttp_run_us", "tokensim.res_run_us"}
	simEvents   = [3]string{"sim.pdp_events_per_run", "sim.ttp_events_per_run", "sim.res_events_per_run"}
	simNsEvent  = [3]string{"sim.pdp_ns_per_event", "sim.ttp_ns_per_event", "sim.res_ns_per_event"}
	simAllocs   = [3]string{"tokensim.pdp_allocs_per_event", "tokensim.ttp_allocs_per_event", "tokensim.res_allocs_per_event"}
)

// simInput is one op's input: a drawn set scaled to VAL-SIM's margin of
// its PDP and of its TTP saturation.
type simInput struct {
	pdpSet, ttpSet ringsched.MessageSet
	horizons       [3]float64
	err            error
}

type tokenSim struct {
	e      *env
	pdp    ringsched.PDPAnalyzer
	ttp    ringsched.TTPAnalyzer
	gen    ringsched.Generator
	inputs []simInput
	events int // the last run's final event count
	prog   ringsched.ProgressFuncs
	ops    int
}

func newTokenSim(e *env) (workload, error) {
	t := &tokenSim{e: e, gen: ringsched.PaperGenerator()}
	t.gen.Streams = simStations
	t.pdp, t.ttp = plantAnalyzers()
	t.prog = ringsched.ProgressFuncs{OnSimulatorAdvanced: func(events int, _ float64) { t.events = events }}
	return t, nil
}

func plantAnalyzers() (ringsched.PDPAnalyzer, ringsched.TTPAnalyzer) {
	pdp := ringsched.NewModifiedPDP(simBW)
	pdp.Net = pdp.Net.WithStations(simStations)
	ttp := ringsched.NewTTP(simBW)
	ttp.Net = ttp.Net.WithStations(simStations)
	return pdp, ttp
}

// setup builds the plant analyzers and the simulation configs of the
// first block's sets.
func (t *tokenSim) setup() error {
	t.pdp, t.ttp = plantAnalyzers()
	for i := range t.inputs {
		if _, err := t.sims(&t.inputs[i]); err != nil {
			return err
		}
	}
	return nil
}

// prepare draws block b's sets and scales each to VAL-SIM's margins; the
// analysis must accept it there and reject it just past saturation.
func (t *tokenSim) prepare(b int) {
	rng := t.e.blockRand(b)
	t.inputs = t.inputs[:0]
	for j := 0; j < t.e.perBlock; j++ {
		var in simInput
		set, err := t.gen.Draw(rng)
		if err == nil {
			in.pdpSet, err = marginSet(set, t.pdp, simMarginPDP)
		}
		if err == nil {
			in.ttpSet, err = marginSet(set, t.ttp, simMarginTTP)
		}
		if err == nil {
			for k, h := range simHorizons {
				in.horizons[k] = math.Max(h, set.MaxPeriod())
			}
		}
		in.err = err
		if b == 0 && err == nil {
			for _, s := range in.pdpSet {
				t.e.led.input(math.Float64bits(s.LengthBits))
			}
		}
		t.inputs = append(t.inputs, in)
	}
}

// marginSet saturates set under a and returns it at margin of saturation,
// after checking the analysis accepts it there and rejects it at 1.02×.
func marginSet(set ringsched.MessageSet, a ringsched.BatchAnalyzer, margin float64) (ringsched.MessageSet, error) {
	sat, err := ringsched.Saturate(set, a, simBW, ringsched.SaturateOptions{})
	if err != nil {
		return nil, err
	}
	if !sat.Feasible {
		return nil, fmt.Errorf("%s: set infeasible at any load", a.Name())
	}
	v, err := ringsched.AnalyzeBatch(a, set, []float64{sat.Scale * margin, sat.Scale * 1.02})
	if err != nil {
		return nil, err
	}
	if !v[0] || v[1] {
		return nil, fmt.Errorf("%s: margin check failed: schedulable(%.2f·sat)=%v, schedulable(1.02·sat)=%v", a.Name(), margin, v[0], v[1])
	}
	return sat.Set.Scale(margin), nil
}

type simConfigs struct {
	pdp ringsched.PDPSimulation
	ttp ringsched.TTPSimulation
	res ringsched.ReservationSimulation
}

// sims builds the three simulators for one input.
func (t *tokenSim) sims(in *simInput) (simConfigs, error) {
	wp, err := ringsched.NewWorkload(in.pdpSet, simStations, ringsched.PhasingSynchronized, nil)
	if err != nil {
		return simConfigs{}, err
	}
	wt, err := ringsched.NewWorkload(in.ttpSet, simStations, ringsched.PhasingSynchronized, nil)
	if err != nil {
		return simConfigs{}, err
	}
	ttp, err := ringsched.NewTTPSimulation(t.ttp, in.ttpSet, wt)
	if err != nil {
		return simConfigs{}, err
	}
	ttp.AsyncSaturated, ttp.Horizon, ttp.Progress = true, in.horizons[1], t.prog
	return simConfigs{
		pdp: ringsched.PDPSimulation{
			Net: t.pdp.Net, Frame: t.pdp.Frame, Variant: ringsched.Modified8025, Workload: wp,
			AsyncSaturated: true, TokenPass: ringsched.PassAverageHalfTheta, Horizon: in.horizons[0], Progress: t.prog,
		},
		ttp: ttp,
		res: ringsched.ReservationSimulation{
			Net: t.pdp.Net, Frame: t.pdp.Frame, Workload: wp, PriorityLevels: simLevels,
			AsyncSaturated: true, Horizon: in.horizons[2], Progress: t.prog,
		},
	}, nil
}

// simRun is one simulator's outcome.
type simRun struct {
	events, misses int
}

// runAll runs the three simulators of one input in order.
func (t *tokenSim) runAll(in *simInput) ([3]simRun, error) {
	var out [3]simRun
	tr := t.e.tr
	cfg, err := t.sims(in)
	if err != nil {
		return out, err
	}
	for k := range out {
		t.events = 0
		m0 := tr.mallocs()
		s := tr.begin(simSpans[k])
		var misses int
		switch k {
		case 0:
			var r ringsched.SimResult
			r, err = cfg.pdp.Run()
			misses = r.DeadlineMisses
		case 1:
			var r ringsched.SimResult
			r, err = cfg.ttp.Run()
			misses = r.DeadlineMisses
		case 2:
			var r ringsched.ReservationResult
			r, err = cfg.res.Run()
			misses = r.DeadlineMisses
		}
		d := tr.end(s)
		if err != nil {
			return out, fmt.Errorf("%s simulator: %w", simNames[k], err)
		}
		out[k] = simRun{events: t.events, misses: misses}
		if tr != nil && t.events > 0 {
			allocs := float64(tr.mallocs() - m0)
			tr.time(simRunUs[k], d, 1e3)
			tr.time(simNsEvent[k], d/time.Duration(t.events), 1)
			tr.mean(simEvents[k], float64(t.events))
			tr.mean(simAllocs[k], allocs/float64(t.events))
		}
	}
	return out, nil
}

func (t *tokenSim) op(j int, c *clock) error {
	in := &t.inputs[j]
	if in.err != nil {
		return in.err
	}
	c.start()
	runs, err := t.runAll(in)
	c.stop()
	if err != nil {
		return err
	}
	first := t.ops == 0
	t.ops++
	for k, r := range runs {
		t.e.led.note(uint64(r.events))
		t.e.led.note(uint64(r.misses))
		if r.events <= 0 {
			return fmt.Errorf("%s simulator fired no events", simNames[k])
		}
	}
	if runs[0].misses > 0 || runs[1].misses > 0 {
		return fmt.Errorf("analysis-accepted set missed deadlines: PDP %d, TTP %d", runs[0].misses, runs[1].misses)
	}
	if j != 0 {
		return nil
	}
	// The first op of every block runs again, untimed: event counts must
	// repeat exactly.
	want := runs
	if t.e.corrupt && first {
		want[0].events++
	}
	tr := t.e.tr
	t.e.tr = nil
	again, err := t.runAll(in)
	t.e.tr = tr
	if err != nil {
		return err
	}
	if again != want {
		return fmt.Errorf("a repeated run fired %v events, want %v", again, want)
	}
	return nil
}

func (t *tokenSim) finish() []error { return nil }
