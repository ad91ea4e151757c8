package expt

import (
	"context"
	"fmt"
	"math"
	"strings"

	"ringsched/internal/breakdown"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/textplot"
	"ringsched/internal/wire"
)

// runFig1Sweep produces the three breakdown-vs-bandwidth series on the
// paper's 100-station plants, in plot order. The protocols run
// sequentially; within each protocol the bandwidth points run on the
// sweep's parallel worker pool.
func runFig1Sweep(ctx context.Context, cfg Config, obs progress.Progress, bandwidths []float64) ([]breakdown.Series, error) {
	est := cfg.estimator(breakdown.PaperEstimator(cfg.Samples, cfg.Seed), obs)
	return est.SweepProtocols(ctx, wire.AllProtocols(), ring.PaperStations, bandwidths)
}

// crossoverBandwidth locates the first bandwidth at which series b
// overtakes series a, interpolating between grid points on a log axis.
// It returns NaN when no crossover occurs within the grid.
func crossoverBandwidth(a, b breakdown.Series) float64 {
	for i := 1; i < len(a.Points); i++ {
		prevGap := a.Points[i-1].Estimate.Mean - b.Points[i-1].Estimate.Mean
		gap := a.Points[i].Estimate.Mean - b.Points[i].Estimate.Mean
		if prevGap > 0 && gap <= 0 {
			// Linear interpolation of the sign change in log-bandwidth.
			x0 := math.Log10(a.Points[i-1].BandwidthBPS)
			x1 := math.Log10(a.Points[i].BandwidthBPS)
			t := prevGap / (prevGap - gap)
			return math.Pow(10, x0+t*(x1-x0))
		}
	}
	return math.NaN()
}

// peak returns the maximum mean and its bandwidth.
func peak(s breakdown.Series) (bw, mean float64) {
	mean = math.Inf(-1)
	for _, p := range s.Points {
		if p.Estimate.Mean > mean {
			mean = p.Estimate.Mean
			bw = p.BandwidthBPS
		}
	}
	return bw, mean
}

func renderFig1(series []breakdown.Series) (string, error) {
	var b strings.Builder
	table, err := breakdown.FormatTable(series)
	if err != nil {
		return "", err
	}
	b.WriteString(table)
	plot := textplot.Plot{
		Title:  "Figure 1: Average breakdown utilization vs bandwidth",
		XLabel: "bandwidth (bps, log)",
		YLabel: "avg breakdown utilization",
		LogX:   true,
		YMax:   1,
	}
	for _, s := range series {
		ts := textplot.Series{Name: s.Name}
		for _, p := range s.Points {
			ts.X = append(ts.X, p.BandwidthBPS)
			ts.Y = append(ts.Y, p.Estimate.Mean)
		}
		plot.Add(ts)
	}
	rendered, err := plot.Render()
	if err != nil {
		return "", err
	}
	b.WriteByte('\n')
	b.WriteString(rendered)
	return b.String(), nil
}

func fig1Experiment() Experiment {
	return Experiment{
		ID:    "FIG1",
		Title: "Average breakdown utilization vs bandwidth, 1 Mbps – 1 Gbps (Figure 1)",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			series, err := runFig1Sweep(ctx, cfg, obs, breakdown.PaperBandwidths(cfg.PointsPerDecade))
			if err != nil {
				return Report{}, err
			}
			text, err := renderFig1(series)
			if err != nil {
				return Report{}, err
			}
			rep := Report{ID: "FIG1", Title: "Figure 1 reproduction", Text: text, Pass: true}

			mod, std, fddi := series[0], series[1], series[2]
			modPeakBW, modPeak := peak(mod)
			stdPeakBW, stdPeak := peak(std)
			fddiLast := fddi.Points[len(fddi.Points)-1].Estimate.Mean
			rep.addValue("modified_peak_util", modPeak)
			rep.addValue("modified_peak_bw_mbps", modPeakBW/1e6)
			rep.addValue("standard_peak_util", stdPeak)
			rep.addValue("standard_peak_bw_mbps", stdPeakBW/1e6)
			rep.addValue("fddi_at_1gbps", fddiLast)

			// Paper shapes: both PDP curves rise then fall; FDDI improves
			// monotonically (within noise); a PDP→FDDI crossover exists.
			cross := crossoverBandwidth(mod, fddi)
			rep.addValue("crossover_bw_mbps", cross/1e6)
			if math.IsNaN(cross) {
				rep.Pass = false
				rep.notef("no PDP→FDDI crossover found in the sweep")
			} else {
				rep.notef("modified-802.5 → FDDI crossover at %.1f Mbps", cross/1e6)
			}
			lastPDP := mod.Points[len(mod.Points)-1].Estimate.Mean
			if !(lastPDP < modPeak) {
				rep.Pass = false
				rep.notef("PDP curve did not fall after its peak")
			}
			firstFDDI := fddi.Points[0].Estimate.Mean
			if !(fddiLast > firstFDDI) {
				rep.Pass = false
				rep.notef("FDDI curve did not improve with bandwidth")
			}
			rep.notef("modified 802.5 peaks at %.3f (%.1f Mbps); IEEE 802.5 peaks at %.3f (%.1f Mbps); FDDI reaches %.3f at 1 Gbps",
				modPeak, modPeakBW/1e6, stdPeak, stdPeakBW/1e6, fddiLast)
			return rep, nil
		},
	}
}

// fmtMbps renders a bandwidth list for notes.
func fmtMbps(bws []float64) string {
	parts := make([]string, len(bws))
	for i, bw := range bws {
		parts[i] = fmt.Sprintf("%g", bw/1e6)
	}
	return strings.Join(parts, ", ")
}
