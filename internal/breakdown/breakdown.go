// Package breakdown implements the performance metric of Section 6:
// average breakdown utilization, the expected utilization of message sets
// in the *saturated schedulable class* — sets that are schedulable but
// become unschedulable if any message length is increased.
//
// The engine follows the Lehoczky–Sha–Ding Monte Carlo methodology: draw a
// random message set, scale every payload by a common factor until the set
// saturates (binary search, valid because every analyzer is monotone in the
// lengths), record its utilization, and average over many samples.
package breakdown

import (
	"errors"
	"fmt"

	"ringsched/internal/core"
	"ringsched/internal/message"
)

// Errors returned by the saturation search.
var (
	ErrNotMonotone = errors.New("breakdown: analyzer not monotone: schedulable set became unschedulable when shrunk")
	ErrNoBracket   = errors.New("breakdown: could not bracket the saturation point")
)

// Saturation is the outcome of driving one message set to its breakdown
// load.
type Saturation struct {
	// Feasible is false when the set is unschedulable at any positive
	// load (fixed per-message overheads alone overrun some deadline). Its
	// breakdown utilization is 0 by convention.
	Feasible bool
	// Scale is the length multiplier at which the set saturates.
	Scale float64
	// Set is the saturated message set.
	Set message.Set
	// Utilization is U of the saturated set at the analyzed bandwidth —
	// one sample of breakdown utilization.
	Utilization float64
	// Probes is the number of schedulability probes the search made.
	Probes int
}

// SaturateOptions tunes the binary search. The zero value gives sensible
// defaults.
type SaturateOptions struct {
	// RelTol is the relative width at which the search stops (default
	// 1e-6).
	RelTol float64
	// MaxBracketSteps bounds the initial exponential bracketing (default
	// 200 doublings/halvings).
	MaxBracketSteps int
}

func (o SaturateOptions) withDefaults() SaturateOptions {
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.MaxBracketSteps <= 0 {
		o.MaxBracketSteps = 200
	}
	return o
}

// Saturate scales the set's payload lengths by a common factor until it is
// saturated under the analyzer, and returns the saturated sample. The
// bandwidth is used only to report utilization.
//
// Analyzers that implement core.BatchAnalyzer (all protocol analyzers do)
// are probed through an allocation-free pooled workspace; the probe
// sequence and every verdict are bit-identical to the plain per-call
// path, which the differential tests keep as their reference oracle.
func Saturate(m message.Set, a core.Analyzer, bandwidthBPS float64, opts SaturateOptions) (Saturation, error) {
	o := opts.withDefaults()
	if err := m.Validate(); err != nil {
		return Saturation{}, err
	}
	if ba, ok := a.(core.BatchAnalyzer); ok {
		probe, release, err := ba.NewProbe(m)
		if err != nil {
			return Saturation{}, err
		}
		defer release()
		return saturate(m, probe.Schedulable, bandwidthBPS, o)
	}
	return saturate(m, func(scale float64) (bool, error) {
		return a.Schedulable(m.Scale(scale))
	}, bandwidthBPS, o)
}

// saturate runs the bracketing and bisection over an arbitrary probe and
// counts the probes it makes. The probe sequence is a pure function of the
// verdicts, so two probes that agree on every verdict produce identical
// Saturations.
func saturate(m message.Set, sched func(float64) (bool, error), bandwidthBPS float64, o SaturateOptions) (Saturation, error) {
	probes := 0
	test := func(scale float64) (bool, error) {
		probes++
		return sched(scale)
	}
	// Bracket the threshold: lo schedulable, hi unschedulable.
	const floor = 1e-15 // below this the set is deemed infeasible at any load
	lo, hi := 0.0, 0.0
	probe := 1.0
	ok, err := test(probe)
	if err != nil {
		return Saturation{}, err
	}
	if ok {
		lo = probe
		for i := 0; ; i++ {
			if i >= o.MaxBracketSteps {
				return Saturation{}, fmt.Errorf("%w: still schedulable at scale %g", ErrNoBracket, lo)
			}
			probe *= 2
			ok, err = test(probe)
			if err != nil {
				return Saturation{}, err
			}
			if !ok {
				hi = probe
				break
			}
			lo = probe
		}
	} else {
		hi = probe
		for i := 0; ; i++ {
			if i >= o.MaxBracketSteps {
				return Saturation{}, fmt.Errorf("%w: still unschedulable at scale %g", ErrNoBracket, hi)
			}
			probe /= 2
			if probe < floor {
				// Unschedulable even at (effectively) zero payload: the
				// fixed overheads alone miss deadlines.
				return Saturation{Feasible: false, Probes: probes}, nil
			}
			ok, err = test(probe)
			if err != nil {
				return Saturation{}, err
			}
			if ok {
				lo = probe
				break
			}
			hi = probe
		}
	}

	// Binary search the threshold down to relative tolerance.
	for hi-lo > o.RelTol*hi {
		mid := lo + (hi-lo)/2
		ok, err = test(mid)
		if err != nil {
			return Saturation{}, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return Saturation{Feasible: false, Probes: probes}, nil
	}

	sat := m.Scale(lo)
	return Saturation{
		Feasible:    true,
		Scale:       lo,
		Set:         sat,
		Utilization: sat.Utilization(bandwidthBPS),
		Probes:      probes,
	}, nil
}

// CheckMonotone verifies the analyzer's monotonicity contract on one set:
// if the set is schedulable at some scale it must remain schedulable at
// every smaller probed scale. Property tests use this to validate analyzers
// before trusting the binary search. The verdicts are gathered through
// core.AnalyzeBatch, so one pooled workspace serves the whole scale list.
func CheckMonotone(m message.Set, a core.Analyzer, scales []float64) error {
	verdicts, err := core.AnalyzeBatch(a, m, scales)
	if err != nil {
		return err
	}
	wasSchedulable := false
	// Walk from largest to smallest: once schedulable, must stay so.
	for i := len(scales) - 1; i >= 0; i-- {
		ok := verdicts[i]
		if wasSchedulable && !ok {
			return fmt.Errorf("%w (scale %g)", ErrNotMonotone, scales[i])
		}
		if ok {
			wasSchedulable = true
		}
	}
	return nil
}

// EqualPeriodBreakdown is the (deterministic) breakdown utilization of n
// equal-period streams under TTP on the paper's FDDI plant sized to n
// stations, with the TTRT fixed at ttrt.
func EqualPeriodBreakdown(n int, period, ttrt, bandwidthBPS float64) (float64, error) {
	set := make(message.Set, n)
	for i := range set {
		set[i] = message.Stream{Period: period, LengthBits: 1}
	}
	t := core.NewTTP(bandwidthBPS)
	t.Net = t.Net.WithStations(n)
	t.Rule = core.TTRTFixed
	t.FixedTTRT = ttrt
	sat, err := Saturate(set, t, bandwidthBPS, SaturateOptions{})
	if err != nil || !sat.Feasible {
		return 0, err
	}
	return sat.Utilization, nil
}
