// Command ttrtscan explores the sensitivity of the timed token protocol's
// breakdown utilization to the TTRT value, supporting the paper's claim
// that TTRT ≈ √(θ·P) maximizes the breakdown utilization for equal-period
// sets and that the √(θ·Pmin) bidding rule is a good general heuristic.
//
// Usage:
//
//	ttrtscan -bw 100 -period 100ms -n 100
//	ttrtscan -bw 100 -general -samples 200
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"time"

	"ringsched"
	"ringsched/internal/breakdown"
	"ringsched/internal/cli"
	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/textplot"
	"ringsched/internal/trace"
)

func main() {
	cli.Main("ttrtscan", run)
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ttrtscan", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		bwMbps  = fs.Float64("bw", 100, "network bandwidth in Mbps")
		period  = fs.Duration("period", 100*time.Millisecond, "common period for the equal-period scan")
		streams = fs.Int("n", 100, "number of streams/stations")
		grid    = fs.Int("grid", 30, "number of TTRT grid points")
		general = fs.Bool("general", false, "also compare TTRT rules on the paper's random workload")
		samples = fs.Int("samples", 100, "Monte Carlo samples for -general")
		seed    = fs.Int64("seed", 1993, "random seed for -general")
		timeout = fs.Duration("timeout", 0, "abort after this duration (0 = none)")
		workers = fs.Int("workers", 0, "parallel worker budget for the -general Monte Carlo pool (0 = all cores)")
		quiet   = fs.Bool("quiet", false, "suppress the live progress meter on stderr")
	)
	var obsf cli.Obs
	obsf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	ctx, logger, err := obsf.Setup(ctx, errw)
	if err != nil {
		return err
	}
	defer obsf.Close()
	ctx, sp := trace.Start(ctx, "cli.ttrtscan")
	defer sp.End()

	bw := ringsched.Mbps(*bwMbps)
	p := period.Seconds()

	probe := core.NewTTP(bw)
	probe.Net = probe.Net.WithStations(*streams)
	theta := probe.Overhead()
	sqrtRule := math.Sqrt(theta * p)
	sp.SetAttr("grid", *grid)
	sp.SetAttr("thetaSec", theta)
	logger.LogAttrs(ctx, slog.LevelDebug, "scan configured",
		slog.Int("grid", *grid),
		slog.Float64("thetaSec", theta),
		slog.Float64("sqrtRuleSec", sqrtRule))

	fmt.Fprintf(out, "equal-period scan: n=%d, P=%v, bw=%g Mbps, θ=%.4g ms, √(θP)=%.4g ms\n\n",
		*streams, *period, *bwMbps, theta*1e3, sqrtRule*1e3)
	fmt.Fprintf(out, "%12s %14s\n", "TTRT (ms)", "breakdown U")

	lo, hi := 2*theta, p/2
	if lo >= hi {
		return fmt.Errorf("no TTRT range: θ=%.4gms leaves nothing below P/2=%.4gms", theta*1e3, p/2*1e3)
	}
	var xs, ys []float64
	bestU, bestTTRT := -1.0, 0.0
	for i := 0; i <= *grid; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ttrt := lo * math.Pow(hi/lo, float64(i)/float64(*grid))
		u, err := breakdown.EqualPeriodBreakdown(*streams, p, ttrt, bw)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%12.4f %14.4f\n", ttrt*1e3, u)
		xs = append(xs, ttrt*1e3)
		ys = append(ys, u)
		if u > bestU {
			bestU, bestTTRT = u, ttrt
		}
	}
	uSqrt, err := breakdown.EqualPeriodBreakdown(*streams, p, sqrtRule, bw)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nempirical best: U=%.4f at TTRT=%.4g ms\n", bestU, bestTTRT*1e3)
	fmt.Fprintf(out, "√(θP) rule:     U=%.4f at TTRT=%.4g ms (%.1f%% of best)\n",
		uSqrt, sqrtRule*1e3, 100*uSqrt/bestU)

	plot := textplot.Plot{
		Title: "breakdown utilization vs TTRT (equal periods)", LogX: true,
		XLabel: "TTRT (ms, log)", YLabel: "breakdown U", Height: 14,
	}
	plot.Add(textplot.Series{Name: "breakdown U", X: xs, Y: ys})
	rendered, err := plot.Render()
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, rendered)

	if *general {
		fmt.Fprintln(out, "\nTTRT rules on the paper's random workload:")
		est := breakdown.Estimator{
			Generator: message.Generator{Streams: *streams, MeanPeriod: 100e-3, PeriodRatio: 10},
			Samples:   *samples,
			Seed:      *seed,
			Workers:   *workers,
		}
		var meter *progress.Meter
		if !*quiet {
			meter = progress.NewMeter(errw, int64(*samples)*2)
			est.Progress = meter
		}
		for _, rule := range []struct {
			name string
			rule ringsched.TTRTRule
		}{
			{"sqrt(theta*Pmin)", ringsched.TTRTSqrtHeuristic},
			{"Pmin/2", ringsched.TTRTHalfMinPeriod},
		} {
			t := core.NewTTP(bw)
			t.Net = t.Net.WithStations(*streams)
			t.Rule = rule.rule
			e, err := est.EstimateContext(ctx, t, bw)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-18s avg breakdown U = %s\n", rule.name, e)
		}
		if meter != nil {
			meter.Close()
		}
	}
	return nil
}
