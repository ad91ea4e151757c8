// Command ringsim runs the operational discrete-event simulator for one of
// the two MAC protocols on a message set and reports deadline misses,
// medium occupancy, and token rotation statistics.
//
// Every run ends with a token-stats block comparing the observed mean
// rotation time against the model's walk time WT = Θ (and TTRT for fddi).
// -trace-out additionally writes the run's spans, the sampled protocol
// events (token passes, reservations, late counters, recoveries), and the
// machine-readable summary as JSON lines.
//
// Usage:
//
//	ringsim -protocol fddi -bw 100 -utilization 0.5
//	ringsim -protocol 8025 -bw 4 -set set.json -phasing random -seed 3
//	ringsim -protocol 8025mod -bw 16 -n 20 -horizon 5s -async=false
//	ringsim -protocol fddi -trace 40          # log the first 40 events
//	ringsim -protocol fddi -trace-out run.jsonl -stats-every 16
//	ringsim -protocol fddi -rotation-hist 8   # token-rotation histogram
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"strings"
	"time"

	"ringsched"
	"ringsched/internal/cli"
	"ringsched/internal/progress"
	"ringsched/internal/wire"
)

func main() {
	cli.Main("ringsim", run)
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		protocol    = fs.String("protocol", "fddi", "protocol: 8025, 8025mod, 8025res (faithful reservation MAC) or fddi")
		topoSpec    = fs.String("topology", "", "bridged topology spec (ring:…+bridge:…+flow:…); simulates the whole ring-of-rings instead of one ring")
		bwMbps      = fs.Float64("bw", 100, "network bandwidth in Mbps")
		setPath     = fs.String("set", "", "JSON message set (default: random paper workload)")
		preset      = fs.String("preset", "", "built-in workload preset (see schedcheck -preset)")
		streams     = fs.Int("n", 20, "streams when generating a random set")
		seed        = fs.Int64("seed", 1, "seed for random set and phasing")
		utilization = fs.Float64("utilization", 0.3, "target utilization for the generated set")
		phasing     = fs.String("phasing", "sync", "arrival phasing: sync or random")
		horizon     = fs.Duration("horizon", 0, "simulated duration (default: 20 max periods)")
		async       = fs.Bool("async", true, "saturated asynchronous background traffic")
		trace       = fs.Int("trace", 0, "log the first N simulator events (0 = off)")
		statsEvery  = fs.Int("stats-every", 1, "keep one raw protocol event in N for -trace-out (statistics always use all)")
		rotHist     = fs.Int("rotation-hist", 0, "print an N-bin token-rotation-time histogram (0 = off)")
		lossProb    = fs.Float64("loss-prob", 0, "token-loss probability per service step")
		levels      = fs.Int("levels", 8, "ring priority levels for -protocol 8025res (0 = one per stream)")
		recovery    = fs.Duration("recovery", 2*time.Millisecond, "ring recovery time per token loss")
		faultSpec   = fs.String("fault-model", "", "fault model spec, e.g. loss:p=1e-3+gilbert:burst=16+crash:rate=0.1 (see internal/faults)")
		scenario    = fs.String("scenario", "", "named fault scenario: clean, noisy-channel, lossy-token, flaky-stations, degraded")
		burstLen    = fs.Float64("burst-len", 0, "override the fault model's mean corruption burst length (frames)")
		crashRate   = fs.Float64("crash-rate", -1, "override the fault model's station crash rate (crashes/s, -1 = keep)")
		timeout     = fs.Duration("timeout", 0, "abort after this wall-clock duration (0 = none)")
		workers     = fs.Int("workers", 0, "cap OS parallelism for the run (0 = all cores)")
		maxEvents   = fs.Int("max-events", 0, "abort after this many simulator events (0 = unlimited)")
		quiet       = fs.Bool("quiet", false, "suppress the live progress meter on stderr")
	)
	var oflags cli.Obs
	oflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	cli.ApplyWorkers(*workers)
	ctx, logger, err := oflags.Setup(ctx, errw)
	if err != nil {
		return err
	}
	defer oflags.Close()

	var meter *progress.Meter
	var obs ringsched.Progress
	if !*quiet {
		meter = progress.NewMeter(errw, 0)
		defer meter.Close()
		obs = meter
	}

	if *topoSpec != "" {
		topo, terr := ringsched.ParseTopology(*topoSpec)
		if terr != nil {
			return terr
		}
		res, terr := ringsched.TopologySimulation{
			Topology:       topo,
			AsyncSaturated: *async,
			Horizon:        horizon.Seconds(),
			MaxEvents:      *maxEvents,
			Progress:       obs,
		}.RunContext(ctx)
		if meter != nil {
			meter.Close()
		}
		if terr != nil {
			return terr
		}
		printTopologyResult(out, res)
		return nil
	}

	bw := ringsched.Mbps(*bwMbps)
	rng := rand.New(rand.NewSource(*seed))

	set, err := cli.LoadSet(*setPath, *preset, *streams, *utilization, bw, rng)
	if err != nil {
		return err
	}
	stations := len(set)
	logger.LogAttrs(ctx, slog.LevelDebug, "workload loaded",
		slog.Int("streams", len(set)), slog.Int("stations", stations),
		slog.Float64("bandwidthMbps", *bwMbps))

	ph := ringsched.PhasingSynchronized
	if *phasing == "random" {
		ph = ringsched.PhasingRandom
	}

	// The stats collector always rides along; -trace only adds the text log.
	stats := &ringsched.TokenStatsCollector{SampleEvery: *statsEvery}
	var tracer ringsched.Tracer = stats
	if *trace > 0 {
		fmt.Fprintf(out, "--- first %d events ---\n", *trace)
		tracer = ringsched.MultiTracer(stats, &ringsched.WriterTracer{W: out, Limit: *trace})
	}

	faults, err := buildFaults(*faultSpec, *scenario, *lossProb, *recovery, *burstLen, *crashRate, *seed)
	if err != nil {
		return err
	}

	var res ringsched.SimResult
	var walkTime, ttrt float64 // model WT = Θ, and TTRT for fddi
	switch *protocol {
	case "8025", "8025mod":
		pdp := ringsched.NewStandardPDP(bw)
		if *protocol == "8025mod" {
			pdp.Variant = ringsched.Modified8025
		}
		pdp.Net = pdp.Net.WithStations(stations)
		walkTime = pdp.Net.Theta()
		w, werr := ringsched.NewWorkload(set, stations, ph, rng)
		if werr != nil {
			return werr
		}
		res, err = ringsched.PDPSimulation{
			Net:            pdp.Net,
			Frame:          pdp.Frame,
			Variant:        pdp.Variant,
			Workload:       w,
			AsyncSaturated: *async,
			Horizon:        horizon.Seconds(),
			Tracer:         tracer,
			Faults:         faults,
			MaxEvents:      *maxEvents,
			Progress:       obs,
		}.RunContext(ctx)
	case "8025res":
		pdp := ringsched.NewStandardPDP(bw)
		pdp.Net = pdp.Net.WithStations(stations)
		walkTime = pdp.Net.Theta()
		w, werr := ringsched.NewWorkload(set, stations, ph, rng)
		if werr != nil {
			return werr
		}
		var rres ringsched.ReservationResult
		rres, err = ringsched.ReservationSimulation{
			Net:            pdp.Net,
			Frame:          pdp.Frame,
			Workload:       w,
			PriorityLevels: *levels,
			AsyncSaturated: *async,
			Horizon:        horizon.Seconds(),
			Tracer:         tracer,
			Faults:         faults,
			MaxEvents:      *maxEvents,
			Progress:       obs,
		}.RunContext(ctx)
		if err != nil {
			return err
		}
		res = rres.Result
		fmt.Fprintf(out, "priority inversions: %d\n", rres.PriorityInversions)
	case "fddi":
		ttp := ringsched.NewTTP(bw)
		ttp.Net = ttp.Net.WithStations(stations)
		walkTime = ttp.Net.Theta()
		w, werr := ringsched.NewWorkload(set, stations, ph, rng)
		if werr != nil {
			return werr
		}
		var simc ringsched.TTPSimulation
		simc, err = ringsched.NewTTPSimulation(ttp, set, w)
		if err != nil {
			return err
		}
		ttrt = simc.TTRT
		simc.AsyncSaturated = *async
		simc.Horizon = horizon.Seconds()
		simc.Tracer = tracer
		simc.Faults = faults
		simc.MaxEvents = *maxEvents
		simc.Progress = obs
		res, err = simc.RunContext(ctx)
	default:
		return fmt.Errorf("unknown -protocol %q (want 8025, 8025mod, 8025res or fddi)", *protocol)
	}
	if meter != nil {
		meter.Close()
	}
	if err != nil {
		return err
	}

	if *trace > 0 {
		fmt.Fprintln(out, "---")
	}
	printResult(out, res)
	sum := stats.Summary()
	fmt.Fprintf(out, "\n%s", sum.Format(walkTime, ttrt))
	if *rotHist > 0 {
		if h, herr := stats.RotationHistogram(*rotHist); herr != nil {
			fmt.Fprintf(out, "rotation histogram: %v\n", herr)
		} else {
			h.Min *= 1e3 // render bin edges in ms
			h.Max *= 1e3
			fmt.Fprintf(out, "\ntoken rotation histogram (ms):\n%s", h.Render(40))
		}
	}
	if err := writeTokenTrace(oflags.TraceWriter(), stats, sum, walkTime, ttrt); err != nil {
		return err
	}
	return nil
}

// writeTokenTrace appends the sampled protocol events and the final
// token-stats summary to the -trace-out stream as JSON lines, alongside
// whatever spans the run exported. w is nil when -trace-out is off.
func writeTokenTrace(w io.Writer, stats *ringsched.TokenStatsCollector, sum ringsched.TokenStats, walkTime, ttrt float64) error {
	if w == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range stats.Events() {
		if err := enc.Encode(map[string]any{
			"event":       e.Kind.String(),
			"timeSec":     e.Time,
			"station":     e.Station,
			"durationSec": e.Duration,
			"detail":      e.Detail,
		}); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{
		"tokenStats":  sum,
		"walkTimeSec": walkTime,
		"ttrtSec":     ttrt,
	})
}

// buildFaults assembles the injected fault model from the scenario/spec
// flags (mutually exclusive), the legacy -loss-prob/-recovery pair, and the
// -burst-len/-crash-rate overrides. Returns nil when nothing is configured.
func buildFaults(spec, scenario string, lossProb float64, recovery time.Duration, burstLen, crashRate float64, seed int64) (*ringsched.FaultModel, error) {
	if spec != "" && scenario != "" {
		return nil, fmt.Errorf("-fault-model and -scenario are mutually exclusive")
	}
	_, model, err := wire.ResolveFaults(spec, scenario)
	switch {
	case err != nil:
		return nil, err
	case spec == "" && scenario == "" && lossProb > 0:
		model = ringsched.FaultModel{
			TokenLossProb: lossProb,
			Recovery:      ringsched.FaultRecovery{Fixed: recovery.Seconds()},
		}
	}
	if burstLen > 0 {
		if model.Channel.Kind == ringsched.ChannelClean {
			model.Channel = ringsched.FaultChannel{
				Kind: ringsched.ChannelGilbertElliott, BurstCorruptProb: 0.5, MeanGap: 1000,
			}
		}
		model.Channel.MeanBurst = burstLen
	}
	if crashRate >= 0 {
		model.Crash.Rate = crashRate
		if crashRate > 0 && model.Crash.MeanDowntime == 0 {
			model.Crash.MeanDowntime = 50e-3
			model.Crash.Bypass = 2e-3
		}
	}
	if !model.Active() {
		return nil, nil
	}
	model.Seed = seed
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &model, nil
}

// printTopologyResult renders a multi-ring run: per-ring occupancy and
// misses, bridge forwarding statistics, and per-flow end-to-end response
// times.
func printTopologyResult(out io.Writer, res ringsched.TopologySimResult) {
	fmt.Fprintf(out, "topology:          %d rings, %d bridge directions, %d flows\n",
		len(res.Rings), len(res.Bridges), len(res.Flows))
	fmt.Fprintf(out, "horizon:           %v\n", time.Duration(res.Horizon*float64(time.Second)))
	fmt.Fprintf(out, "deadline misses:   %d\n", res.DeadlineMisses)
	fmt.Fprintf(out, "bridge drops:      %d\n", res.Drops)
	for _, r := range res.Rings {
		fmt.Fprintf(out, "\nring %s (%s): misses=%d  occupancy sync %.4f async %.4f token %.4f idle %.4f\n",
			r.Name, r.Result.Protocol, r.Result.DeadlineMisses,
			r.Result.SyncTime/res.Horizon, r.Result.AsyncTime/res.Horizon,
			r.Result.TokenTime/res.Horizon, r.Result.IdleTime/res.Horizon)
	}
	if len(res.Bridges) > 0 {
		fmt.Fprintf(out, "\n%-10s %12s %8s %8s %14s %12s\n",
			"bridge", "rate(Mbps)", "fwd", "dropped", "maxBacklog(b)", "busy(ms)")
		for _, b := range res.Bridges {
			fmt.Fprintf(out, "%-10s %12.3f %8d %8d %14.0f %12.4f\n",
				b.From+"->"+b.To, b.RateBPS/1e6, b.Forwarded, b.Dropped,
				b.MaxBacklogBits, b.BusyTime*1e3)
		}
	}
	fmt.Fprintf(out, "\n%-12s %-12s %8s %8s %8s %14s %14s\n",
		"flow", "path", "done", "missed", "dropped", "meanResp(ms)", "maxResp(ms)")
	for _, f := range res.Flows {
		fmt.Fprintf(out, "%-12s %-12s %8d %8d %8d %14.4f %14.4f\n",
			f.Flow.Name, strings.Join(f.Path, ">"), f.Completed, f.Missed, f.Dropped,
			f.MeanResponse*1e3, f.MaxResponse*1e3)
	}
}

func printResult(out io.Writer, res ringsched.SimResult) {
	fmt.Fprintf(out, "protocol:          %s\n", res.Protocol)
	fmt.Fprintf(out, "horizon:           %v\n", time.Duration(res.Horizon*float64(time.Second)))
	fmt.Fprintf(out, "deadline misses:   %d\n", res.DeadlineMisses)
	fmt.Fprintf(out, "medium occupancy:  sync %.4f  async %.4f  token %.4f  idle %.4f\n",
		res.SyncTime/res.Horizon, res.AsyncTime/res.Horizon,
		res.TokenTime/res.Horizon, res.IdleTime/res.Horizon)
	if res.RotationN > 0 {
		fmt.Fprintf(out, "token rotation:    mean %.4gms  max %.4gms  (n=%d)\n",
			res.RotationMean*1e3, res.RotationMax*1e3, res.RotationN)
	}
	if res.TokenLosses > 0 || res.RecoveryTime > 0 {
		fmt.Fprintf(out, "token losses:      %d (recovery %.4gms total)\n",
			res.TokenLosses, res.RecoveryTime*1e3)
	}
	if res.CorruptedFrames > 0 {
		fmt.Fprintf(out, "corrupted frames:  %d\n", res.CorruptedFrames)
	}
	if res.Crashes > 0 {
		fmt.Fprintf(out, "station crashes:   %d\n", res.Crashes)
	}
	fmt.Fprintf(out, "\n%4s %12s %10s %8s %8s %14s %14s\n",
		"stn", "period(ms)", "done", "missed", "backlog", "meanResp(ms)", "maxResp(ms)")
	for _, s := range res.Stations {
		fmt.Fprintf(out, "%4d %12.3f %10d %8d %8d %14.4f %14.4f\n",
			s.Station, s.Stream.Period*1e3, s.Completed, s.Missed, s.Backlogged,
			s.MeanResponse*1e3, s.MaxResponse*1e3)
	}
}
