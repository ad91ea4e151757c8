package expt

import (
	"math/rand"
	"testing"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/rma"
	"ringsched/internal/tokensim"
)

// TestSimulatorAnalysisConformance cross-checks the analytic verdicts
// against the operational simulator on saturated random sets:
//
//   - a set the analysis guarantees (at 95 % of its breakdown load) must
//     not miss a single deadline in simulation under critical-instant
//     phasing and saturated asynchronous interference;
//   - a set the analysis rejects (just above breakdown) must come with a
//     consistent analytic witness: the response-time analysis and the
//     allocation-free workspace kernel both reject it, and the RTA's first
//     failing task overruns its period.
func TestSimulatorAnalysisConformance(t *testing.T) {
	const (
		n      = 15
		bw     = 4e6
		margin = 0.95
	)
	samples := 6
	if testing.Short() {
		samples = 2
	}
	gen := message.Generator{Streams: n, MeanPeriod: 100e-3, PeriodRatio: 10}
	for _, variant := range []core.Variant{core.Modified8025, core.Standard8025} {
		pdp := core.NewStandardPDP(bw)
		pdp.Net = pdp.Net.WithStations(n)
		pdp.Variant = variant
		for s := 0; s < samples; s++ {
			rng := rand.New(rand.NewSource(int64(2000 + s)))
			set, err := gen.Draw(rng)
			if err != nil {
				t.Fatalf("Draw: %v", err)
			}
			sat, err := breakdown.Saturate(set, pdp, bw, breakdown.SaturateOptions{})
			if err != nil {
				t.Fatalf("%v set %d: Saturate: %v", variant, s, err)
			}
			if !sat.Feasible {
				continue
			}

			// Guaranteed side: analysis says yes at the margin, and the
			// simulator agrees operationally.
			test := sat.Set.Scale(margin)
			ok, err := pdp.Schedulable(test)
			if err != nil {
				t.Fatalf("%v set %d: Schedulable: %v", variant, s, err)
			}
			if !ok {
				t.Fatalf("%v set %d: set at %.0f%% of breakdown not analytically schedulable", variant, s, margin*100)
			}
			w, err := tokensim.NewWorkload(test, n, tokensim.PhasingSynchronized, nil)
			if err != nil {
				t.Fatalf("%v set %d: NewWorkload: %v", variant, s, err)
			}
			res, err := tokensim.PDPSim{
				Net: pdp.Net, Frame: pdp.Frame, Variant: variant,
				Workload: w, AsyncSaturated: true,
				TokenPass: tokensim.PassAverageHalfTheta,
			}.Run()
			if err != nil {
				t.Fatalf("%v set %d: simulate: %v", variant, s, err)
			}
			if res.MissedAny() {
				t.Errorf("%v set %d: analysis guaranteed the set but simulation missed %d deadlines",
					variant, s, res.DeadlineMisses)
			}

			// Rejected side: just above breakdown the analysis must say no,
			// and every analytic route must point at the same witness.
			rejected := sat.Set.Scale(1.02)
			ok, err = pdp.Schedulable(rejected)
			if err != nil {
				t.Fatalf("%v set %d: Schedulable(rejected): %v", variant, s, err)
			}
			if ok {
				t.Fatalf("%v set %d: set above breakdown still schedulable", variant, s)
			}
			tasks := pdp.Tasks(rejected)
			blocking := pdp.Blocking()
			rta, err := rma.ResponseTimeAnalysis(tasks, blocking)
			if err != nil {
				t.Fatalf("%v set %d: RTA: %v", variant, s, err)
			}
			var ws rma.Workspace
			if err := ws.Load(tasks); err != nil {
				t.Fatalf("%v set %d: Load: %v", variant, s, err)
			}
			wsOK, err := ws.Schedulable(blocking)
			if err != nil {
				t.Fatalf("%v set %d: workspace Schedulable: %v", variant, s, err)
			}
			if rta.Schedulable || wsOK {
				t.Errorf("%v set %d: witness routes disagree with the rejection (rta %v, workspace %v)",
					variant, s, rta.Schedulable, wsOK)
			}
			if i := rta.FirstFailure; i >= 0 {
				sorted := rejected.SortRM()
				if rta.ResponseTimes[i] <= sorted[i].Period {
					t.Errorf("%v set %d: witness task %d has response %g within its period %g",
						variant, s, i, rta.ResponseTimes[i], sorted[i].Period)
				}
			}
		}
	}
}
