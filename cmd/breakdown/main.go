// Command breakdown regenerates Figure 1 of the paper: the average
// breakdown utilization of the three protocols (modified 802.5, standard
// IEEE 802.5, FDDI) as network bandwidth sweeps from 1 Mbps to 1 Gbps,
// printed as a table and an ASCII plot.
//
// Usage:
//
//	breakdown                         # full Figure 1
//	breakdown -bw 4,10,100            # specific bandwidths (Mbps)
//	breakdown -samples 400 -seed 7    # tighter confidence intervals
//	breakdown -n 50 -mean-period 50ms -period-ratio 4
//	breakdown -workers 8 -timeout 2m  # parallel sweep with a deadline
//	breakdown -trace-out spans.jsonl  # export per-point estimator spans
//
// A live progress line (percent, ETA, current sweep point) streams to
// stderr; Ctrl-C aborts promptly. Results are identical at any -workers
// value.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"ringsched"
	"ringsched/internal/breakdown"
	"ringsched/internal/cli"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/textplot"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
)

func main() {
	cli.Main("breakdown", run)
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("breakdown", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		samples     = fs.Int("samples", 100, "Monte Carlo samples per point")
		seed        = fs.Int64("seed", 1993, "random seed")
		points      = fs.Int("points", 3, "sweep points per bandwidth decade")
		bwList      = fs.String("bw", "", "comma-separated bandwidths in Mbps (overrides the sweep grid)")
		streams     = fs.Int("n", 100, "number of stations/streams")
		meanPeriod  = fs.Duration("mean-period", 100*time.Millisecond, "mean message period")
		periodRatio = fs.Float64("period-ratio", 10, "max/min period ratio")
		noPlot      = fs.Bool("no-plot", false, "suppress the ASCII plot")
		distr       = fs.Bool("distribution", false, "also print the per-set spread (P10/median/P90)")
		jsonOut     = fs.Bool("json", false, "emit the ringschedd /v1/sweep response JSON instead of the table and plot")
		timeout     = fs.Duration("timeout", 0, "abort after this duration (0 = none)")
		workers     = fs.Int("workers", 0, "parallel worker budget across sweep points and samples (0 = all cores)")
		quiet       = fs.Bool("quiet", false, "suppress the live progress meter on stderr")
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
	ctx, sp := trace.Start(ctx, "cli.breakdown")
	defer sp.End()

	var bandwidths []float64
	if *bwList != "" {
		for _, part := range strings.Split(*bwList, ",") {
			mbps, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("parse -bw %q: %w", part, err)
			}
			bandwidths = append(bandwidths, ringsched.Mbps(mbps))
		}
	} else {
		bandwidths = breakdown.PaperBandwidths(*points)
	}
	sp.SetAttr("samples", *samples)
	sp.SetAttr("bandwidths", len(bandwidths))
	logger.LogAttrs(ctx, slog.LevelDebug, "sweep configured",
		slog.Int("bandwidths", len(bandwidths)),
		slog.Int("samples", *samples),
		slog.Int("streams", *streams))

	if *jsonOut {
		// The request goes through the same canonicalization, estimation
		// and encoding as the ringschedd server, so this output is
		// byte-identical to a /v1/sweep response body for the same sweep.
		req := ringsched.SweepRequest{
			PointsPerDecade: *points,
			Streams:         *streams,
			MeanPeriodMs:    meanPeriod.Seconds() * 1e3,
			PeriodRatio:     *periodRatio,
			Samples:         *samples,
			Seed:            *seed,
		}
		for _, bw := range bandwidths {
			req.BandwidthsMbps = append(req.BandwidthsMbps, bw/1e6)
		}
		var obs ringsched.Progress
		if !*quiet {
			meter := progress.NewMeter(errw, int64(*samples)*int64(len(bandwidths))*3)
			defer meter.Close()
			obs = meter
		}
		resp, err := ringsched.RunSweep(ctx, req, *workers, obs)
		if err != nil {
			return err
		}
		body, err := ringsched.EncodeResponse(resp)
		if err != nil {
			return err
		}
		_, err = out.Write(body)
		return err
	}

	est := ringsched.Estimator{
		Generator: message.Generator{
			Streams:     *streams,
			MeanPeriod:  meanPeriod.Seconds(),
			PeriodRatio: *periodRatio,
		},
		Samples: *samples,
		Seed:    *seed,
		Workers: *workers,
	}

	// Three protocol series, each estimating every bandwidth point.
	var meter *progress.Meter
	if !*quiet {
		meter = progress.NewMeter(errw, int64(*samples)*int64(len(bandwidths))*3)
		defer meter.Close()
		est.Progress = meter
	}

	series, err := est.SweepProtocols(ctx, wire.AllProtocols(), *streams, bandwidths)
	if err != nil {
		return err
	}
	if meter != nil {
		meter.Close()
	}

	fmt.Fprintf(out, "Average breakdown utilization (n=%d, mean period %v, ratio %g, %d samples/point)\n\n",
		*streams, *meanPeriod, *periodRatio, *samples)
	table, err := breakdown.FormatTable(series)
	if err != nil {
		return err
	}
	fmt.Fprint(out, table)
	if *distr {
		spread, err := breakdown.FormatDistributionTable(series)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nper-set breakdown spread:")
		fmt.Fprint(out, spread)
	}

	if !*noPlot && len(bandwidths) > 1 {
		plot := textplot.Plot{
			Title:  "Figure 1: average breakdown utilization vs bandwidth",
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
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, rendered)
	}
	return nil
}
