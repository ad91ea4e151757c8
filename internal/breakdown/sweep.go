package breakdown

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"ringsched/internal/core"
	"ringsched/internal/par"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
)

// ErrRaggedSeries is returned by the table formatters when the series do
// not all have the same number of points (e.g. a sweep aborted mid-way).
var ErrRaggedSeries = errors.New("breakdown: series have mismatched point counts")

// AnalyzerFactory builds an analyzer for one plant bandwidth; bandwidth
// sweeps (Figure 1) hold everything else constant. Factories are called
// from sweep worker goroutines and must not share mutable state.
type AnalyzerFactory func(bandwidthBPS float64) core.Analyzer

// Point is one (bandwidth, estimate) pair of a sweep.
type Point struct {
	BandwidthBPS float64
	Estimate     Estimate
}

// Series is a named breakdown-utilization curve over bandwidth — one line
// of Figure 1.
type Series struct {
	Name   string
	Points []Point
}

// Sweep estimates the average breakdown utilization at each bandwidth. It
// is the uncancelable convenience wrapper around SweepContext.
func (e Estimator) Sweep(name string, factory AnalyzerFactory, bandwidthsBPS []float64) (Series, error) {
	return e.SweepContext(context.Background(), name, factory, bandwidthsBPS)
}

// SweepContext runs the sweep with cancellation, estimating the bandwidth
// points in parallel. The Estimator's Workers budget bounds the *total*
// parallelism: par.Split divides it between concurrent points and the
// per-point sample pools. Results are bit-identical at any worker count
// because the RNG stream of (bandwidth, sample) is a pure function of
// (Seed, bandwidth, sample index) — see Estimator.Workers.
//
// On the first point error the remaining points are canceled and the error
// of the lowest-bandwidth failing point is returned; if ctx is canceled
// first, ctx.Err() is returned.
func (e Estimator) SweepContext(ctx context.Context, name string, factory AnalyzerFactory, bandwidthsBPS []float64) (Series, error) {
	if len(bandwidthsBPS) == 0 {
		return Series{Name: name}, nil
	}
	pointWorkers, inner := par.Split(e.Workers, len(bandwidthsBPS))
	point := e
	point.Workers = inner

	ctx, sweepSpan := trace.Start(ctx, "breakdown.sweep")
	defer sweepSpan.End()
	sweepSpan.SetAttr("series", name)
	sweepSpan.SetAttr("points", len(bandwidthsBPS))
	sweepSpan.SetAttr("pointWorkers", pointWorkers)

	obs := progress.OrNop(e.Progress)
	points := make([]Point, len(bandwidthsBPS))
	err := par.For(ctx, pointWorkers, len(bandwidthsBPS), func(ctx context.Context, _, i int) error {
		bw := bandwidthsBPS[i]
		ctx, sp := trace.Start(ctx, "breakdown.point")
		sp.SetAttr("series", name)
		sp.SetAttr("bandwidthBPS", bw)
		est, err := point.EstimateContext(ctx, factory(bw), bw)
		if err != nil {
			sp.SetError(err)
			sp.End()
			return fmt.Errorf("sweep %s at %.3g bps: %w", name, bw, err)
		}
		sp.SetAttr("mean", est.Mean)
		sp.End()
		points[i] = Point{BandwidthBPS: bw, Estimate: est}
		obs.SweepPointDone(name, bw)
		return nil
	})
	if err != nil {
		sweepSpan.SetError(err)
		return Series{}, err
	}
	return Series{Name: name, Points: points}, nil
}

// Protocol returns the analyzer factory of one Figure 1 protocol, keyed by
// its wire slug, on the paper's plant sized to exactly stations stations;
// nil for a slug outside wire.AllProtocols.
func Protocol(slug string, stations int) AnalyzerFactory {
	switch slug {
	case wire.ProtocolModifiedPDP, wire.ProtocolStandardPDP:
		v := core.Modified8025
		if slug == wire.ProtocolStandardPDP {
			v = core.Standard8025
		}
		return func(bw float64) core.Analyzer {
			return core.PDPFor(ring.IEEE8025(bw).WithStations(stations), v, 0)
		}
	case wire.ProtocolTTP:
		return func(bw float64) core.Analyzer {
			return core.TTPFor(ring.FDDI(bw).WithStations(stations), 0)
		}
	}
	return nil
}

// SweepProtocols sweeps each protocol slug in turn (see Protocol), naming
// each series after its analyzer — one line of Figure 1 per protocol.
func (e Estimator) SweepProtocols(ctx context.Context, slugs []string, stations int, bandwidthsBPS []float64) ([]Series, error) {
	series := make([]Series, 0, len(slugs))
	for _, slug := range slugs {
		factory := Protocol(slug, stations)
		if factory == nil {
			return nil, fmt.Errorf("%w: %q", wire.ErrUnknownProtocol, slug)
		}
		// An analyzer's name does not depend on the bandwidth.
		s, err := e.SweepContext(ctx, factory(1).Name(), factory, bandwidthsBPS)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return series, nil
}

// PaperBandwidths returns the Figure 1 sweep grid: 1 Mbps to 1 Gbps,
// log-spaced with pointsPerDecade samples per decade (endpoints included).
func PaperBandwidths(pointsPerDecade int) []float64 {
	if pointsPerDecade <= 0 {
		pointsPerDecade = 3
	}
	var out []float64
	const decades = 3 // 1e6 .. 1e9
	total := decades * pointsPerDecade
	for i := 0; i <= total; i++ {
		out = append(out, math.Pow(10, 6+3*float64(i)/float64(total)))
	}
	return out
}

// checkAligned verifies that every series has the same point count as the
// first, so row-major table rendering cannot index out of range.
func checkAligned(series []Series) error {
	for _, s := range series[1:] {
		if len(s.Points) != len(series[0].Points) {
			return fmt.Errorf("%w: %q has %d points, %q has %d",
				ErrRaggedSeries, series[0].Name, len(series[0].Points), s.Name, len(s.Points))
		}
	}
	return nil
}

// FormatDistributionTable renders, for each series, the spread of
// per-set breakdown utilizations (P10 / median / P90) alongside the mean —
// the planners' view: 90 % of workloads break down above the P10 column.
// All series must have the same point count (ErrRaggedSeries otherwise).
func FormatDistributionTable(series []Series) (string, error) {
	if len(series) == 0 {
		return "", nil
	}
	if err := checkAligned(series); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12s", "BW (Mbps)")
	for _, s := range series {
		fmt.Fprintf(&b, " %32s", s.Name+" mean/p10/p50/p90")
	}
	b.WriteByte('\n')
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%12.3f", series[0].Points[i].BandwidthBPS/1e6)
		for _, s := range series {
			e := s.Points[i].Estimate
			fmt.Fprintf(&b, "    %7.4f %7.4f %7.4f %7.4f", e.Mean, e.P10, e.Median, e.P90)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// FormatTable renders series as a fixed-width table: one row per bandwidth,
// one column per series — the tabular form of Figure 1. All series must
// have the same point count (ErrRaggedSeries otherwise).
func FormatTable(series []Series) (string, error) {
	if len(series) == 0 {
		return "", nil
	}
	if err := checkAligned(series); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12s", "BW (Mbps)")
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteByte('\n')
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%12.3f", series[0].Points[i].BandwidthBPS/1e6)
		for _, s := range series {
			p := s.Points[i]
			fmt.Fprintf(&b, " %14.4f ±%.4f", p.Estimate.Mean, p.Estimate.CI95)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
