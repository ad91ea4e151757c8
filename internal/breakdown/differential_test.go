package breakdown

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ringsched/internal/core"
	"ringsched/internal/message"
)

// saturateReference is the retained straightforward implementation: every
// probe re-validates, re-sorts and re-analyzes the scaled set through the
// analyzer's plain Schedulable path. The differential suite uses it as
// the oracle the fast path must match bit-for-bit.
func saturateReference(m message.Set, a core.Analyzer, bandwidthBPS float64, opts SaturateOptions) (Saturation, error) {
	o := opts.withDefaults()
	if err := m.Validate(); err != nil {
		return Saturation{}, err
	}
	return saturate(m, func(scale float64) (bool, error) {
		return a.Schedulable(m.Scale(scale))
	}, bandwidthBPS, o)
}

// drawSet draws one seeded random message set of moderate size.
func drawSet(t *testing.T, rng *rand.Rand, streams int) message.Set {
	t.Helper()
	gen := message.Generator{Streams: streams, MeanPeriod: 100e-3, PeriodRatio: 10}
	set, err := gen.Draw(rng)
	if err != nil {
		t.Fatalf("Draw: %v", err)
	}
	return set
}

// diffAnalyzers is the protocol matrix for the saturation differential
// suite.
func diffAnalyzers(bw float64) []core.Analyzer {
	return []core.Analyzer{
		core.NewStandardPDP(bw),
		core.NewModifiedPDP(bw),
		core.NewTTP(bw),
		core.IdealRM{},
	}
}

// sameSaturation fails the test unless the two saturations are
// bit-identical: same feasibility, same scale and utilization bits, same
// saturated payloads.
func sameSaturation(t *testing.T, label string, fast, ref Saturation) {
	t.Helper()
	if fast.Feasible != ref.Feasible {
		t.Fatalf("%s: Feasible %v, reference %v", label, fast.Feasible, ref.Feasible)
	}
	if math.Float64bits(fast.Scale) != math.Float64bits(ref.Scale) {
		t.Fatalf("%s: Scale %v (%x), reference %v (%x)", label,
			fast.Scale, math.Float64bits(fast.Scale), ref.Scale, math.Float64bits(ref.Scale))
	}
	if math.Float64bits(fast.Utilization) != math.Float64bits(ref.Utilization) {
		t.Fatalf("%s: Utilization %v, reference %v", label, fast.Utilization, ref.Utilization)
	}
	if len(fast.Set) != len(ref.Set) {
		t.Fatalf("%s: saturated set size %d, reference %d", label, len(fast.Set), len(ref.Set))
	}
	for i := range fast.Set {
		if math.Float64bits(fast.Set[i].LengthBits) != math.Float64bits(ref.Set[i].LengthBits) {
			t.Fatalf("%s stream %d: saturated length %v, reference %v",
				label, i, fast.Set[i].LengthBits, ref.Set[i].LengthBits)
		}
	}
}

// TestSaturateDifferentialParity is the breakdown half of the differential
// suite: over 1000+ seeded sets per protocol, the pooled-probe saturation
// search must reproduce the reference per-call search bit-for-bit —
// feasibility, breakdown scale, utilization, and every saturated payload.
// The inputs are small sets (2–15 streams) at three bandwidths, plus
// paper-scale 100-stream sets under every period model at every Figure 1
// bandwidth, where the probe's bracket carries facts across long prefixes.
func TestSaturateDifferentialParity(t *testing.T) {
	small, paper := 350, 6
	if testing.Short() {
		small, paper = 60, 1
	}
	type input struct {
		gen  message.Generator // Streams 0: drawn from 2..15 per set
		bws  []float64
		sets int
	}
	inputs := []input{{
		gen:  message.Generator{MeanPeriod: 100e-3, PeriodRatio: 10},
		bws:  []float64{4e6, 16e6, 100e6},
		sets: small,
	}}
	for _, pm := range []message.PeriodModel{
		message.PeriodsUniform, message.PeriodsLogUniform, message.PeriodsEqual, message.PeriodsHarmonic,
	} {
		gen := message.PaperGenerator()
		gen.Periods = pm
		inputs = append(inputs, input{gen: gen, bws: PaperBandwidths(3), sets: paper})
	}
	for _, in := range inputs {
		for _, bw := range in.bws {
			for _, a := range diffAnalyzers(bw) {
				rng := rand.New(rand.NewSource(271828))
				for k := 0; k < in.sets; k++ {
					gen := in.gen
					if gen.Streams == 0 {
						gen.Streams = 2 + rng.Intn(14)
					}
					set, err := gen.Draw(rng)
					if err != nil {
						t.Fatalf("Draw: %v", err)
					}
					label := fmt.Sprintf("%s %v/%d streams bw=%g set %d", a.Name(), gen.Periods, gen.Streams, bw, k)
					fast, err1 := Saturate(set, a, bw, SaturateOptions{})
					ref, err2 := saturateReference(set, a, bw, SaturateOptions{})
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s: fast err %v, reference err %v", label, err1, err2)
					}
					if err1 != nil {
						if err1.Error() != err2.Error() {
							t.Fatalf("%s: fast err %q, reference err %q", label, err1, err2)
						}
						continue
					}
					sameSaturation(t, label, fast, ref)
				}
			}
		}
	}
}

// TestSaturateInfeasibleParity checks both paths agree on sets whose fixed
// overheads alone are unschedulable at any payload: a stream with a period
// far below the token circulation time.
func TestSaturateInfeasibleParity(t *testing.T) {
	// At 4 Mbps the 802.5 plant's Θ is ~10 µs; a 1 µs period can never be
	// met regardless of payload.
	set := message.Set{
		{Name: "impossible", Period: 1e-6, LengthBits: 8},
		{Name: "easy", Period: 100e-3, LengthBits: 4096},
	}
	for _, a := range []core.Analyzer{core.NewStandardPDP(4e6), core.NewModifiedPDP(4e6), core.NewTTP(4e6)} {
		fast, err := Saturate(set, a, 4e6, SaturateOptions{})
		if err != nil {
			t.Fatalf("%s: fast: %v", a.Name(), err)
		}
		ref, err := saturateReference(set, a, 4e6, SaturateOptions{})
		if err != nil {
			t.Fatalf("%s: reference: %v", a.Name(), err)
		}
		if fast.Feasible || ref.Feasible {
			t.Fatalf("%s: expected infeasible (fast %v, reference %v)", a.Name(), fast.Feasible, ref.Feasible)
		}
		sameSaturation(t, a.Name(), fast, ref)
	}
}

// TestSaturatePooledConcurrency hammers the pooled probe path from many
// goroutines (the sweep worker pattern) and checks every result against the
// reference. Run with -race this also proves the sync.Pool handoff is
// clean.
func TestSaturatePooledConcurrency(t *testing.T) {
	workers := 8
	each := 25
	if testing.Short() {
		each = 8
	}
	a := core.NewModifiedPDP(4e6)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for k := 0; k < each; k++ {
				gen := message.Generator{Streams: 2 + rng.Intn(10), MeanPeriod: 100e-3, PeriodRatio: 10}
				set, err := gen.Draw(rng)
				if err != nil {
					errs <- err
					return
				}
				fast, err := Saturate(set, a, 4e6, SaturateOptions{})
				if err != nil {
					errs <- err
					return
				}
				ref, err := saturateReference(set, a, 4e6, SaturateOptions{})
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(fast.Scale) != math.Float64bits(ref.Scale) ||
					fast.Feasible != ref.Feasible {
					t.Errorf("worker %d set %d: fast (%v,%v) != reference (%v,%v)",
						w, k, fast.Feasible, fast.Scale, ref.Feasible, ref.Scale)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
