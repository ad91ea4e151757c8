// Benchmark harness: one benchmark per table/figure/claim of the paper
// (see DESIGN.md's experiment index). Each Benchmark*Experiment runs the
// corresponding registered experiment and reports its headline numbers as
// benchmark metrics, so `go test -bench=.` regenerates the evaluation:
//
//	BenchmarkFig1Experiment          reports crossover_bw_mbps, peaks, ...
//	BenchmarkClaim*/Benchmark*       report their acceptance values
//
// Micro-benchmarks for the analysis and simulation kernels follow; they
// track the cost of a single schedulability test, saturation search, and
// simulated second per protocol.
package ringsched_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ringsched"
)

// benchConfig keeps experiment regeneration affordable inside a benchmark
// iteration while preserving the paper's shapes.
func benchConfig() ringsched.ExperimentConfig {
	return ringsched.ExperimentConfig{Samples: 40, Seed: 1993, PointsPerDecade: 3}
}

// runExperiment runs one registered experiment per benchmark iteration and
// publishes its headline values as metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := ringsched.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last ringsched.ExperimentReport
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(context.Background(), benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	for k, v := range last.Values {
		b.ReportMetric(v, k)
	}
	if !last.Pass {
		b.Fatalf("%s did not reproduce the paper's claim: %v", id, last.Notes)
	}
}

// BenchmarkFig1Experiment regenerates Figure 1 (all three protocols over
// the 1 Mbps – 1 Gbps sweep) and reports Monte Carlo throughput as
// samples/s — the figure-of-merit the benchmark-regression gate tracks.
func BenchmarkFig1Experiment(b *testing.B) {
	cfg := benchConfig()
	samplesPerRun := 3 * len(ringsched.PaperBandwidths(cfg.PointsPerDecade)) * cfg.Samples
	runExperiment(b, "FIG1")
	b.ReportMetric(float64(samplesPerRun*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkClaimLowBandwidth regenerates the 1–10 Mbps comparison rows.
func BenchmarkClaimLowBandwidth(b *testing.B) { runExperiment(b, "CLAIM-LOWBW") }

// BenchmarkClaimHighBandwidth regenerates the ≥100 Mbps comparison rows.
func BenchmarkClaimHighBandwidth(b *testing.B) { runExperiment(b, "CLAIM-HIGHBW") }

// BenchmarkClaimModifiedDominates regenerates the modified-vs-standard
// 802.5 sweep.
func BenchmarkClaimModifiedDominates(b *testing.B) { runExperiment(b, "CLAIM-MOD") }

// BenchmarkTTRTSensitivity regenerates the TTRT selection scan and the
// √(θ·P) optimality check.
func BenchmarkTTRTSensitivity(b *testing.B) { runExperiment(b, "CLAIM-TTRT") }

// BenchmarkMinimumBreakdownTTP regenerates the ≈33 % worst-case bound.
func BenchmarkMinimumBreakdownTTP(b *testing.B) { runExperiment(b, "CLAIM-33PCT") }

// BenchmarkIdealRMBreakdown regenerates the ≈88 % ideal-RM baseline.
func BenchmarkIdealRMBreakdown(b *testing.B) { runExperiment(b, "BASE-RM88") }

// BenchmarkAblationPeriods regenerates the period-distribution ablation.
func BenchmarkAblationPeriods(b *testing.B) { runExperiment(b, "ABL-PERIOD") }

// BenchmarkAblationFrameSize regenerates the frame-size ablation.
func BenchmarkAblationFrameSize(b *testing.B) { runExperiment(b, "ABL-FRAME") }

// BenchmarkAblationStations regenerates the station-count ablation.
func BenchmarkAblationStations(b *testing.B) { runExperiment(b, "ABL-N") }

// BenchmarkAllocationSchemes regenerates the allocation-scheme comparison.
func BenchmarkAllocationSchemes(b *testing.B) { runExperiment(b, "ABL-ALLOC") }

// BenchmarkSimValidation regenerates the analysis-vs-simulation check.
func BenchmarkSimValidation(b *testing.B) { runExperiment(b, "VAL-SIM") }

// BenchmarkFaultTolerance regenerates the token-loss survivability table.
func BenchmarkFaultTolerance(b *testing.B) { runExperiment(b, "EXT-FAULT") }

// BenchmarkPriorityLevels regenerates the ring-priority-granularity table.
func BenchmarkPriorityLevels(b *testing.B) { runExperiment(b, "EXT-PRIO") }

// BenchmarkPhasingSensitivity regenerates the critical-instant-pessimism
// comparison.
func BenchmarkPhasingSensitivity(b *testing.B) { runExperiment(b, "EXT-PHASE") }

// benchSweep measures one multi-point breakdown sweep at a given worker
// budget; comparing BenchmarkSweepWorkers1 against BenchmarkSweepWorkersMax
// shows the wall-clock gain from the parallel sweep (the results themselves
// are identical at any worker count).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	est := ringsched.PaperEstimator(20, 1993)
	est.Workers = workers
	bws := []float64{1e6, 4e6, 16e6, 64e6, 256e6, 1e9}
	factory := func(bw float64) ringsched.Analyzer { return ringsched.NewTTP(bw) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SweepContext(context.Background(), "FDDI", factory, bws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWorkers1 runs the sweep on a single worker.
func BenchmarkSweepWorkers1(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepWorkersMax runs the same sweep on every core.
func BenchmarkSweepWorkersMax(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// --- Micro-benchmarks of the analysis kernels -------------------------

func benchSet(n int, seed int64) ringsched.MessageSet {
	gen := ringsched.PaperGenerator()
	gen.Streams = n
	set, err := gen.Draw(rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return set
}

// BenchmarkTheorem41 measures one exact PDP schedulability test for the
// paper's 100-stream workload.
func BenchmarkTheorem41(b *testing.B) {
	set, err := benchSet(100, 1).ScaleToUtilization(0.4, 16e6)
	if err != nil {
		b.Fatal(err)
	}
	a := ringsched.NewModifiedPDP(16e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Schedulable(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem51 measures one exact TTP schedulability test.
func BenchmarkTheorem51(b *testing.B) {
	set, err := benchSet(100, 1).ScaleToUtilization(0.4, 100e6)
	if err != nil {
		b.Fatal(err)
	}
	a := ringsched.NewTTP(100e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Schedulable(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaturate measures one full saturation binary search (the inner
// loop of every Monte Carlo sample).
func BenchmarkSaturate(b *testing.B) {
	set := benchSet(100, 1)
	a := ringsched.NewTTP(100e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ringsched.Saturate(set, a, 100e6, ringsched.SaturateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDPSimSecond measures simulating one second of a loaded
// 20-station modified-802.5 ring.
func BenchmarkPDPSimSecond(b *testing.B) { benchPDPSim(b, 20) }

// BenchmarkPDPSimSecond1000 is BenchmarkPDPSimSecond with 1000 streams on
// 1000 stations, where every frame holds the ring for its 0.7 ms latency
// and the queues grow all second.
func BenchmarkPDPSimSecond1000(b *testing.B) { benchPDPSim(b, 1000) }

func benchPDPSim(b *testing.B, n int) {
	set, err := benchSet(n, 2).ScaleToUtilization(0.3, 16e6)
	if err != nil {
		b.Fatal(err)
	}
	pdp := ringsched.NewModifiedPDP(16e6)
	pdp.Net = pdp.Net.WithStations(n)
	w, err := ringsched.NewWorkload(set, n, ringsched.PhasingSynchronized, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := (ringsched.PDPSimulation{
			Net: pdp.Net, Frame: pdp.Frame, Variant: ringsched.Modified8025,
			Workload: w, AsyncSaturated: true, Horizon: 1,
		}).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Horizon != 1 {
			b.Fatal("bad horizon")
		}
	}
}

// BenchmarkTTPSimSecond measures simulating one second of a loaded
// 20-station FDDI ring.
func BenchmarkTTPSimSecond(b *testing.B) { benchTTPSim(b, 20) }

// BenchmarkTTPSimSecond1000 is BenchmarkTTPSimSecond with 1000 streams on
// 1000 stations.
func BenchmarkTTPSimSecond1000(b *testing.B) { benchTTPSim(b, 1000) }

func benchTTPSim(b *testing.B, n int) {
	set, err := benchSet(n, 2).ScaleToUtilization(0.4, 100e6)
	if err != nil {
		b.Fatal(err)
	}
	ttp := ringsched.NewTTP(100e6)
	ttp.Net = ttp.Net.WithStations(n)
	w, err := ringsched.NewWorkload(set, n, ringsched.PhasingSynchronized, nil)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := ringsched.NewTTPSimulation(ttp, set, w)
	if err != nil {
		b.Fatal(err)
	}
	sim.AsyncSaturated = true
	sim.Horizon = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReservationSimSecond measures simulating one second of the
// faithful 802.5 reservation MAC on a loaded 20-station ring.
func BenchmarkReservationSimSecond(b *testing.B) { benchReservationSim(b, 20) }

// BenchmarkReservationSimSecond1000 is BenchmarkReservationSimSecond with
// 1000 streams on 1000 stations, overloaded as BenchmarkPDPSimSecond1000
// is.
func BenchmarkReservationSimSecond1000(b *testing.B) { benchReservationSim(b, 1000) }

func benchReservationSim(b *testing.B, n int) {
	set, err := benchSet(n, 2).ScaleToUtilization(0.3, 16e6)
	if err != nil {
		b.Fatal(err)
	}
	pdp := ringsched.NewStandardPDP(16e6)
	pdp.Net = pdp.Net.WithStations(n)
	w, err := ringsched.NewWorkload(set, n, ringsched.PhasingSynchronized, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ringsched.ReservationSimulation{
			Net: pdp.Net, Frame: pdp.Frame, Workload: w,
			PriorityLevels: 8, AsyncSaturated: true, Horizon: 1,
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorDraw measures drawing one 100-stream random workload.
func BenchmarkGeneratorDraw(b *testing.B) {
	gen := ringsched.PaperGenerator()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Draw(rng); err != nil {
			b.Fatal(err)
		}
	}
}
