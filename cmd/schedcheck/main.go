// Command schedcheck tests whether a synchronous message set is guaranteed
// under each of the three protocols — modified 802.5, standard IEEE 802.5
// (Theorem 4.1) and FDDI with the local allocation scheme (Theorem 5.1) —
// and prints the detailed per-stream analysis.
//
// The message set comes from a JSON file (see -print-example) or, without
// -set, from the paper's random workload generator.
//
// Usage:
//
//	schedcheck -print-example > set.json
//	schedcheck -set set.json -bw 100
//	schedcheck -bw 16 -n 40 -seed 7 -verbose
//	schedcheck -bw 100 -json -trace-out spans.jsonl -log-level debug
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"strings"

	"ringsched"
	"ringsched/internal/cli"
	"ringsched/internal/core"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
)

func main() {
	cli.Main("schedcheck", run)
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("schedcheck", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		topoSpec     = fs.String("topology", "", "bridged topology spec (ring:…+bridge:…+flow:…); analyze end-to-end bounds instead of a single-ring set")
		setPath      = fs.String("set", "", "JSON file with the message set (default: random paper workload)")
		preset       = fs.String("preset", "", "built-in workload preset (avionics, process-control, space-station, multimedia)")
		bwMbps       = fs.Float64("bw", 100, "network bandwidth in Mbps")
		streams      = fs.Int("n", 100, "streams when generating a random set")
		seed         = fs.Int64("seed", 1, "seed for the random set")
		utilization  = fs.Float64("utilization", 0.3, "target utilization when generating a random set")
		verbose      = fs.Bool("verbose", false, "print per-stream detail")
		printExample = fs.Bool("print-example", false, "print an example JSON message set and exit")
		faultSpec    = fs.String("fault-model", "", "fault model spec for a side-by-side degraded-mode verdict, e.g. loss:p=1e-3+gilbert:burst=16")
		scenario     = fs.String("scenario", "", "named fault scenario: clean, noisy-channel, lossy-token, flaky-stations, degraded")
		jsonOut      = fs.Bool("json", false, "emit the ringschedd /v1/analyze response JSON instead of the text report")
		timeout      = fs.Duration("timeout", 0, "abort after this duration (0 = none)")
		workers      = fs.Int("workers", 0, "cap OS parallelism for the run (0 = all cores)")
	)
	var obsf cli.Obs
	obsf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	cli.ApplyWorkers(*workers)
	ctx, logger, err := obsf.Setup(ctx, errw)
	if err != nil {
		return err
	}
	defer obsf.Close()
	ctx, sp := trace.Start(ctx, "cli.schedcheck")
	defer sp.End()

	if *printExample {
		example := ringsched.MessageSet{
			{Name: "attitude-control", Period: 10e-3, LengthBits: 4096},
			{Name: "telemetry", Period: 50e-3, LengthBits: 65536},
			{Name: "video", Period: 100e-3, LengthBits: 1 << 20},
		}
		return example.WriteJSON(out)
	}

	if *topoSpec != "" {
		return runTopology(ctx, out, *topoSpec, *verbose, *jsonOut)
	}

	bw := ringsched.Mbps(*bwMbps)
	set, err := cli.LoadSet(*setPath, *preset, *streams, *utilization, bw, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fm, err := loadFaultModel(*faultSpec, *scenario)
	if err != nil {
		return err
	}
	sp.SetAttr("streams", len(set))
	sp.SetAttr("bandwidthMbps", *bwMbps)
	logger.LogAttrs(ctx, slog.LevelDebug, "workload loaded",
		slog.Int("streams", len(set)),
		slog.Float64("bandwidthMbps", *bwMbps),
		slog.Float64("utilization", set.Utilization(bw)))

	if *jsonOut {
		// The request goes through the same canonicalization, analysis and
		// encoding as the ringschedd server, so this output is
		// byte-identical to a /v1/analyze response body for the same set.
		req := ringsched.AnalyzeRequest{
			BandwidthMbps: *bwMbps,
			Streams:       wireStreams(set),
			Detail:        *verbose,
		}
		if fm != nil {
			req.FaultModel = fm.Spec()
		}
		resp, err := ringsched.Analyze(ctx, req)
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

	fmt.Fprintf(out, "message set: %d streams, payload utilization %.4f at %.3g Mbps\n",
		len(set), set.Utilization(bw), *bwMbps)
	if fm != nil {
		fmt.Fprintf(out, "fault model: %s\n", fm.Spec())
	}
	fmt.Fprintln(out)

	// PDP variants.
	for _, variant := range []ringsched.PDPVariant{ringsched.Modified8025, ringsched.Standard8025} {
		if err := ctx.Err(); err != nil {
			return err
		}
		pdp := ringsched.NewStandardPDP(bw)
		pdp.Variant = variant
		if len(set) > pdp.Net.Stations {
			pdp.Net = pdp.Net.WithStations(len(set))
		}
		rep, err := pdp.Report(set)
		if err != nil {
			return err
		}
		printPDP(out, rep, *verbose)
		if fm != nil {
			budget := pdp.FaultBudgetFor(fm, set)
			deg, err := pdp.FaultReport(set, budget)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  degraded:      schedulable=%-5v  B'=%.3gus  A=%.4f  (Nloss=%.3g, R=%.3gus)\n\n",
				deg.Schedulable, deg.Blocking*1e6, budget.Availability,
				budget.Losses, budget.Recovery*1e6)
		}
	}

	// TTP.
	if err := ctx.Err(); err != nil {
		return err
	}
	ttp := ringsched.NewTTP(bw)
	if len(set) > ttp.Net.Stations {
		ttp.Net = ttp.Net.WithStations(len(set))
	}
	rep, err := ttp.Report(set)
	if err != nil {
		return err
	}
	printTTP(out, rep, *verbose)
	if fm != nil {
		budget := ttp.FaultBudgetFor(fm, set)
		deg, err := ttp.FaultReport(set, budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  degraded:      schedulable=%-5v  A=%.4f  Σh=%.4gms  cap=%.4gms\n\n",
			deg.Schedulable, deg.Availability, deg.TotalAllocation*1e3, deg.Capacity*1e3)
	}
	return nil
}

// runTopology answers -topology: the bridged ring-of-rings analysis with
// per-ring verdicts and end-to-end flow bounds. With -json the output is
// byte-identical to a /v1/topology/analyze response body.
func runTopology(ctx context.Context, out io.Writer, spec string, verbose, jsonOut bool) error {
	if jsonOut {
		resp, err := ringsched.AnalyzeTopologyRequest(ctx, ringsched.TopologyRequest{
			Topology: spec,
			Detail:   verbose,
		})
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

	topo, err := ringsched.ParseTopology(spec)
	if err != nil {
		return err
	}
	rep, err := ringsched.AnalyzeTopology(topo)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "topology: %d rings, %d bridges, %d flows\n",
		len(topo.Nodes), len(topo.Bridges), len(rep.Flows))
	fmt.Fprintf(out, "verdict:  schedulable=%v  bounded=%v\n\n", rep.Schedulable, rep.Bounded)
	for _, r := range rep.Rings {
		fmt.Fprintf(out, "ring %-8s %-14s streams=%-3d schedulable=%-5v U=%.4f\n",
			r.Name, r.Protocol, len(r.Set), r.Schedulable, r.Utilization)
	}
	if len(rep.Bridges) > 0 {
		fmt.Fprintln(out)
		for _, b := range rep.Bridges {
			if !b.Stable {
				fmt.Fprintf(out, "bridge %s->%s: UNSTABLE (arrival %.4g Mbps >= rate %.4g Mbps)\n",
					b.From, b.To, b.ArrivalRateBPS/1e6, b.RateBPS/1e6)
				continue
			}
			fmt.Fprintf(out, "bridge %s->%s: flows=%d  burst=%.0fb  delay<=%.4fms  bufferOK=%v\n",
				b.From, b.To, b.Flows, b.BurstBits, b.DelayBound*1e3, b.BufferOK)
		}
	}
	fmt.Fprintln(out)
	for _, f := range rep.Flows {
		if !f.Bounded {
			fmt.Fprintf(out, "flow %-10s %-16s period=%.4gms  bound=unbounded  schedulable=false\n",
				f.Flow.Name, pathString(f.Path), f.Flow.Period*1e3)
			continue
		}
		fmt.Fprintf(out, "flow %-10s %-16s period=%.4gms  bound=%.4fms  schedulable=%v\n",
			f.Flow.Name, pathString(f.Path), f.Flow.Period*1e3, f.Bound*1e3, f.Schedulable)
		if verbose {
			fmt.Fprintf(out, "     ring delays (ms): %s   bridge delays (ms): %s\n",
				formatDelays(f.RingDelays), formatDelays(f.BridgeDelays))
		}
	}
	return nil
}

func pathString(path []string) string {
	return strings.Join(path, ">")
}

func formatDelays(ds []float64) string {
	if len(ds) == 0 {
		return "-"
	}
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4f", d*1e3)
	}
	return strings.Join(parts, " ")
}

// loadFaultModel resolves the -fault-model / -scenario flags (mutually
// exclusive) into an injectable model, or nil when neither is set or the
// result is inactive.
func loadFaultModel(spec, scenario string) (*ringsched.FaultModel, error) {
	if spec != "" && scenario != "" {
		return nil, fmt.Errorf("-fault-model and -scenario are mutually exclusive")
	}
	_, m, err := wire.ResolveFaults(spec, scenario)
	if err != nil || !m.Active() {
		return nil, err
	}
	return &m, nil
}

func printPDP(out io.Writer, rep core.PDPReport, verbose bool) {
	fmt.Fprintf(out, "%-16s schedulable=%-5v  U=%.4f  U'=%.4f  B=%.3gus  Θ=%.3gus  F=%.3gus\n",
		rep.Variant, rep.Schedulable, rep.Utilization, rep.AugmentedUtilization,
		rep.Blocking*1e6, rep.Theta*1e6, rep.FrameTime*1e6)
	if verbose {
		fmt.Fprintf(out, "  %4s %-18s %12s %8s %14s %14s %6s\n",
			"#", "name", "period(ms)", "frames", "C'(us)", "resp(us)", "ok")
		for i, s := range rep.Streams {
			fmt.Fprintf(out, "  %4d %-18s %12.3f %8d %14.2f %14.2f %6v\n",
				i+1, name(s.Stream.Name, i), s.Stream.Period*1e3, s.Frames,
				s.AugmentedLength*1e6, s.ResponseTime*1e6, s.Schedulable)
		}
	}
	fmt.Fprintln(out)
}

func printTTP(out io.Writer, rep core.TTPReport, verbose bool) {
	fmt.Fprintf(out, "%-16s schedulable=%-5v  U=%.4f  TTRT=%.4gms  θ=%.3gus  Σh=%.4gms  cap=%.4gms\n",
		"FDDI", rep.Schedulable, rep.Utilization, rep.TTRT*1e3,
		rep.Overhead*1e6, rep.TotalAllocation*1e3, rep.Capacity*1e3)
	if verbose {
		fmt.Fprintf(out, "  %4s %-18s %12s %6s %14s %14s %12s\n",
			"#", "name", "period(ms)", "q", "C'(us)", "h(us)", "wcr(ms)")
		for i, s := range rep.Streams {
			fmt.Fprintf(out, "  %4d %-18s %12.3f %6d %14.2f %14.2f %12.3f\n",
				i+1, name(s.Stream.Name, i), s.Stream.Period*1e3, s.Q,
				s.AugmentedLength*1e6, s.Allocation*1e6, s.WorstCaseResponse*1e3)
		}
	}
	fmt.Fprintln(out)
}

// wireStreams converts a message set to the service's wire form.
func wireStreams(set ringsched.MessageSet) []ringsched.ServiceStreamSpec {
	out := make([]ringsched.ServiceStreamSpec, len(set))
	for i, s := range set {
		out[i] = ringsched.ServiceStreamSpec{Name: s.Name, PeriodMs: s.Period * 1e3, LengthBits: s.LengthBits}
	}
	return out
}

func name(n string, i int) string {
	if n == "" {
		return fmt.Sprintf("S%d", i+1)
	}
	return n
}
