package core_test

import (
	"math/rand"
	"testing"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/rma"
)

// countedPDP keeps the workspace telemetry of the last probe it handed
// out, read just before the probe returns to its pool.
type countedPDP struct {
	core.PDP
	counters rma.Counters
}

func (a *countedPDP) NewProbe(m message.Set) (core.Probe, func(), error) {
	p, release, err := a.PDP.NewProbe(m)
	if err != nil {
		return nil, nil, err
	}
	return p, func() { a.counters = core.ProbeCounters(p); release() }, nil
}

// TestSaturationProbeCounts pins the probe and evaluation counts of the
// BenchmarkSaturatePDP search (the paper's 100-stream workload, seed 1,
// modified 802.5 at 4 Mbps), of the same set under IEEE 802.5 at 4 Mbps,
// and of the modified search at 1 Mbps, where it is infeasible and the
// halving walk runs to the floor, and at 16 Mbps, where C' plateaus
// between frame boundaries. The counts are deterministic, so an inference
// that silently stops firing fails here, not only in a timing. The
// probes are the search's own and must never move; TaskEvals and
// Iterations may only fall.
func TestSaturationProbeCounts(t *testing.T) {
	gen := message.Generator{Streams: 100, MeanPeriod: 100e-3, PeriodRatio: 10}
	set, err := gen.Draw(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pdp    core.PDP
		probes int
		want   rma.Counters
	}{
		{core.NewModifiedPDP(4e6), 26, rma.Counters{Schedulable: 26,
			TaskEvals: 58, Iterations: 366, KnownSkips: 1237, DeadlineWitnesses: 112,
			WarmStarts: 16, ChainedStarts: 33}},
		{core.NewStandardPDP(4e6), 27, rma.Counters{Schedulable: 27,
			TaskEvals: 57, Iterations: 381, KnownSkips: 1301, DeadlineWitnesses: 115,
			WarmStarts: 20, ChainedStarts: 27}},
		{core.NewModifiedPDP(1e6), 50, rma.Counters{Schedulable: 50, DominanceFails: 41,
			TaskEvals: 20, Iterations: 83, KnownSkips: 127, DeadlineWitnesses: 38,
			ChainedStarts: 11}},
		{core.NewModifiedPDP(16e6), 25, rma.Counters{Schedulable: 25, DominancePasses: 4, DominanceFails: 7,
			TaskEvals: 42, Iterations: 258, KnownSkips: 770, DeadlineWitnesses: 114,
			WarmStarts: 5, ChainedStarts: 28}},
	} {
		a := &countedPDP{PDP: tc.pdp}
		bw := tc.pdp.Net.BandwidthBPS
		sat, err := breakdown.Saturate(set, a, bw, breakdown.SaturateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sat.Probes != tc.probes || a.counters != tc.want {
			t.Errorf("%s at %g Mbps: %d probes, counters %+v; want %d probes, %+v",
				tc.pdp.Name(), bw/1e6, sat.Probes, a.counters, tc.probes, tc.want)
		}
	}
}
