package breakdown

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/trace"
)

func testEstimator(samples int) Estimator {
	return Estimator{
		Generator: message.Generator{Streams: 10, MeanPeriod: 100e-3, PeriodRatio: 10},
		Samples:   samples,
		Seed:      7,
	}
}

func TestEstimateValidation(t *testing.T) {
	e := testEstimator(0)
	if _, err := e.Estimate(capAnalyzer{Cap: 1e6}, 1e6); !errors.Is(err, ErrNoSamples) {
		t.Errorf("zero samples: %v, want ErrNoSamples", err)
	}
	e = Estimator{Samples: 5}
	if _, err := e.Estimate(capAnalyzer{Cap: 1e6}, 1e6); err == nil {
		t.Error("invalid generator accepted")
	}
}

func TestEstimateAgainstKnownAnalyzer(t *testing.T) {
	// Under capAnalyzer every saturated set has total rate exactly Cap,
	// so every sample's breakdown utilization is Cap/bw.
	e := testEstimator(40)
	est, err := e.Estimate(capAnalyzer{Cap: 5e5}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-0.5) > 1e-4 {
		t.Errorf("Mean = %v, want 0.5", est.Mean)
	}
	if est.StdDev > 1e-4 {
		t.Errorf("StdDev = %v, want ≈0 (deterministic saturation)", est.StdDev)
	}
	if est.Samples != 40 || est.Infeasible != 0 {
		t.Errorf("Samples=%d Infeasible=%d, want 40/0", est.Samples, est.Infeasible)
	}
	// Deterministic saturation: all percentiles collapse onto the mean.
	if math.Abs(est.P10-0.5) > 1e-4 || math.Abs(est.Median-0.5) > 1e-4 || math.Abs(est.P90-0.5) > 1e-4 {
		t.Errorf("percentiles = %v/%v/%v, want 0.5", est.P10, est.Median, est.P90)
	}
	if est.String() == "" {
		t.Error("String empty")
	}
}

func TestEstimateDeterministicAcrossWorkers(t *testing.T) {
	base := testEstimator(30)
	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 8
	a := core.NewTTP(100e6)
	a.Net = a.Net.WithStations(10)
	got1, err := serial.Estimate(a, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := parallel.Estimate(a, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if got1.Mean != got2.Mean || got1.StdDev != got2.StdDev {
		t.Errorf("parallel (%v) != serial (%v)", got2, got1)
	}
}

func TestEstimateSeedChangesResults(t *testing.T) {
	a := core.NewTTP(100e6)
	a.Net = a.Net.WithStations(10)
	e1 := testEstimator(20)
	e2 := testEstimator(20)
	e2.Seed = 8
	got1, err := e1.Estimate(a, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := e2.Estimate(a, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if got1.Mean == got2.Mean {
		t.Error("different seeds produced identical estimates")
	}
}

func TestEstimatePropagatesErrors(t *testing.T) {
	e := testEstimator(5)
	wantErr := errors.New("kaput")
	if _, err := e.Estimate(errAnalyzer{err: wantErr}, 1e6); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want kaput", err)
	}
}

func TestEstimateCountsInfeasible(t *testing.T) {
	e := testEstimator(10)
	est, err := e.Estimate(capAnalyzer{Cap: -1}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if est.Infeasible != 10 {
		t.Errorf("Infeasible = %d, want 10", est.Infeasible)
	}
	if est.Mean != 0 {
		t.Errorf("Mean = %v, want 0", est.Mean)
	}
}

// countingCap is capAnalyzer counting its verdicts. It is not a
// BatchAnalyzer, so every saturation probe is one Schedulable call.
type countingCap struct {
	capAnalyzer
	calls *atomic.Int64
}

func (c countingCap) Schedulable(m message.Set) (bool, error) {
	c.calls.Add(1)
	return c.capAnalyzer.Schedulable(m)
}

// TestEstimateSpanCountsProbes checks that the breakdown.estimate span
// carries the total number of saturation probes over all samples, for
// feasible searches and for infeasible halving walks alike.
func TestEstimateSpanCountsProbes(t *testing.T) {
	for _, limit := range []float64{5e5, -1} {
		ring := trace.NewRing(4)
		ctx := trace.WithTracer(context.Background(), trace.New(ring))
		a := countingCap{capAnalyzer{Cap: limit}, new(atomic.Int64)}
		if _, err := testEstimator(12).EstimateContext(ctx, a, 1e6); err != nil {
			t.Fatal(err)
		}
		spans := ring.Snapshot()
		if len(spans) != 1 || spans[0].Name != "breakdown.estimate" {
			t.Fatalf("cap %g: spans %+v, want one breakdown.estimate", limit, spans)
		}
		want := int(a.calls.Load())
		if got := spans[0].Attrs["probes"]; got != want || want == 0 {
			t.Errorf("cap %g: probes attribute %v, want %d", limit, got, want)
		}
	}
}

func TestEstimatePercentileOrdering(t *testing.T) {
	a := core.NewTTP(100e6)
	a.Net = a.Net.WithStations(10)
	est, err := testEstimator(30).Estimate(a, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if !(est.Min <= est.P10 && est.P10 <= est.Median && est.Median <= est.P90 && est.P90 <= est.Max) {
		t.Errorf("percentile ordering violated: min=%v p10=%v med=%v p90=%v max=%v",
			est.Min, est.P10, est.Median, est.P90, est.Max)
	}
}

func TestSweepShapes(t *testing.T) {
	e := testEstimator(10)
	bws := []float64{4e6, 100e6}
	s, err := e.Sweep("toy", func(bw float64) core.Analyzer {
		return capAnalyzer{Cap: bw / 2}
	}, bws)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "toy" || len(s.Points) != 2 {
		t.Fatalf("series = %+v", s)
	}
	for i, p := range s.Points {
		if p.BandwidthBPS != bws[i] {
			t.Errorf("point %d bandwidth %v, want %v", i, p.BandwidthBPS, bws[i])
		}
		if math.Abs(p.Estimate.Mean-0.5) > 1e-4 {
			t.Errorf("point %d mean %v, want 0.5", i, p.Estimate.Mean)
		}
	}
	if table, err := FormatTable([]Series{s}); err != nil || table == "" {
		t.Errorf("FormatTable = %q, %v", table, err)
	}
	if table, err := FormatTable(nil); err != nil || table != "" {
		t.Errorf("FormatTable(nil) = %q, %v; want empty", table, err)
	}
}

func TestFormatDistributionTable(t *testing.T) {
	e := testEstimator(10)
	s, err := e.Sweep("toy", func(bw float64) core.Analyzer {
		return capAnalyzer{Cap: bw / 2}
	}, []float64{4e6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FormatDistributionTable([]Series{s})
	if err != nil {
		t.Fatal(err)
	}
	if got == "" {
		t.Fatal("empty distribution table")
	}
	if table, err := FormatDistributionTable(nil); err != nil || table != "" {
		t.Errorf("FormatDistributionTable(nil) = %q, %v; want empty", table, err)
	}
}

func TestPaperBandwidths(t *testing.T) {
	got := PaperBandwidths(3)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10 (3 decades × 3 + 1)", len(got))
	}
	if math.Abs(got[0]-1e6) > 1 || math.Abs(got[len(got)-1]-1e9) > 1e3 {
		t.Errorf("endpoints = %v .. %v, want 1e6 .. 1e9", got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("grid not increasing")
		}
	}
	if def := PaperBandwidths(0); len(def) != 10 {
		t.Errorf("default grid len = %d, want 10", len(def))
	}
}

func TestHarmonicSetsReachFullUtilizationUnderIdealRM(t *testing.T) {
	// The classic result: rate-monotonic scheduling of harmonic task sets
	// achieves 100 % utilization. The Monte Carlo engine must find
	// breakdown utilization ≈ 1 for harmonic workloads.
	e := Estimator{
		Generator: message.Generator{
			Streams:     20,
			MeanPeriod:  100e-3,
			PeriodRatio: 8,
			Periods:     message.PeriodsHarmonic,
		},
		Samples: 25,
		Seed:    11,
	}
	est, err := e.Estimate(core.IdealRM{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean < 0.999 {
		t.Errorf("harmonic ideal-RM breakdown = %v, want ≈1.0", est.Mean)
	}
}

func TestPaperEstimatorDefaults(t *testing.T) {
	e := PaperEstimator(50, 3)
	if e.Samples != 50 || e.Seed != 3 {
		t.Error("PaperEstimator did not set samples/seed")
	}
	if e.Generator.Streams != 100 || e.Generator.MeanPeriod != 100e-3 || e.Generator.PeriodRatio != 10 {
		t.Errorf("PaperEstimator generator = %+v", e.Generator)
	}
}
