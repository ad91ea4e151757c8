package breakdown

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/par"
	"ringsched/internal/progress"
	"ringsched/internal/stats"
	"ringsched/internal/trace"
)

// ErrNoSamples is returned when an estimator is configured with a
// non-positive sample count.
var ErrNoSamples = errors.New("breakdown: sample count must be positive")

// Estimate is the Monte Carlo estimate of a protocol's average breakdown
// utilization under one workload distribution and plant.
type Estimate struct {
	// Mean is the average breakdown utilization.
	Mean float64
	// CI95 is the half-width of the 95 % confidence interval on Mean.
	CI95 float64
	// StdDev is the sample standard deviation.
	StdDev float64
	// Min and Max are the extreme breakdown utilizations observed.
	Min, Max float64
	// P10, Median and P90 summarize the distribution of per-set breakdown
	// utilizations — P10 is the operationally interesting tail: 90 % of
	// workloads break down above it.
	P10, Median, P90 float64
	// Samples is the number of message sets drawn.
	Samples int
	// Infeasible counts sets that were unschedulable at any positive load
	// (their breakdown utilization contributes 0).
	Infeasible int
}

// String implements fmt.Stringer.
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ±%.4f (n=%d, sd=%.4f, range [%.4f, %.4f], infeasible %d)",
		e.Mean, e.CI95, e.Samples, e.StdDev, e.Min, e.Max, e.Infeasible)
}

// Estimator runs the Monte Carlo estimation. The zero value is not usable;
// set Generator and Samples.
type Estimator struct {
	// Generator draws the random message sets.
	Generator message.Generator
	// Samples is the number of sets per estimate.
	Samples int
	// Seed derives a deterministic per-sample RNG stream, making estimates
	// reproducible regardless of goroutine scheduling.
	Seed int64
	// Workers bounds the parallelism; zero means GOMAXPROCS. Results are
	// bit-identical at any worker count: the RNG stream of sample i is a
	// pure function of (Seed, i), never of goroutine scheduling.
	Workers int
	// Saturate tunes the per-sample binary search.
	Saturate SaturateOptions
	// Progress, when non-nil, observes completed samples and sweep points.
	// It is invoked from worker goroutines and must be concurrency-safe.
	Progress progress.Progress
}

// PaperEstimator returns an estimator with the paper's workload
// distribution and a sample count adequate for stable Figure 1 curves.
func PaperEstimator(samples int, seed int64) Estimator {
	return Estimator{Generator: message.PaperGenerator(), Samples: samples, Seed: seed}
}

// Estimate computes the average breakdown utilization of the analyzer. The
// bandwidth is used to express the saturated sets' utilization; pass the
// analyzer's plant bandwidth (or 1 for abstract CPU-style analyzers).
//
// Estimate is the uncancelable convenience wrapper around EstimateContext.
func (e Estimator) Estimate(a core.Analyzer, bandwidthBPS float64) (Estimate, error) {
	return e.EstimateContext(context.Background(), a, bandwidthBPS)
}

// EstimateContext is Estimate with cancellation: the worker pool stops
// dispatching new samples as soon as ctx is canceled (returning ctx.Err())
// or any sample fails (returning the lowest-index failing sample's error,
// whatever the worker count). Already-dispatched samples run to
// completion — each is one bounded binary search.
func (e Estimator) EstimateContext(ctx context.Context, a core.Analyzer, bandwidthBPS float64) (Estimate, error) {
	if e.Samples <= 0 {
		return Estimate{}, ErrNoSamples
	}
	if err := e.Generator.Validate(); err != nil {
		return Estimate{}, err
	}
	workers, _ := par.Split(e.Workers, e.Samples)

	ctx, sp := trace.Start(ctx, "breakdown.estimate")
	defer sp.End()
	sp.SetAttr("analyzer", a.Name())
	sp.SetAttr("samples", e.Samples)
	sp.SetAttr("workers", workers)

	obs := progress.OrNop(e.Progress)
	results := make([]sampleOutcome, e.Samples)
	// One RNG per worker, reseeded for each sample: Seed resets the whole
	// source, so sample i draws the stream of NewSource(its seed) without
	// allocating a ~4.9 KB source per sample.
	rngs := make([]*rand.Rand, workers)
	err := par.For(ctx, workers, e.Samples, func(_ context.Context, w, i int) (err error) {
		if rngs[w] == nil {
			rngs[w] = rand.New(rand.NewSource(0))
		}
		if results[i], err = e.sample(rngs[w], a, bandwidthBPS, i); err == nil {
			obs.SampleDone()
		}
		return err
	})
	if err != nil {
		sp.SetError(err)
		return Estimate{}, err
	}

	var acc stats.Running
	infeasible, probes := 0, 0
	utils := make([]float64, 0, len(results))
	for _, r := range results {
		if r.infeasible {
			infeasible++
		}
		probes += r.probes
		acc.Add(r.util)
		utils = append(utils, r.util)
	}
	p10, err := stats.Percentile(utils, 10)
	if err != nil {
		return Estimate{}, err
	}
	median, err := stats.Percentile(utils, 50)
	if err != nil {
		return Estimate{}, err
	}
	p90, err := stats.Percentile(utils, 90)
	if err != nil {
		return Estimate{}, err
	}
	sp.SetAttr("mean", acc.Mean())
	sp.SetAttr("infeasible", infeasible)
	sp.SetAttr("probes", probes)
	return Estimate{
		Mean:       acc.Mean(),
		CI95:       acc.CI95(),
		StdDev:     acc.StdDev(),
		Min:        acc.Min(),
		Max:        acc.Max(),
		P10:        p10,
		Median:     median,
		P90:        p90,
		Samples:    acc.N(),
		Infeasible: infeasible,
	}, nil
}

type sampleOutcome struct {
	util       float64
	infeasible bool
	probes     int
}

// sample draws set i and drives it to saturation. rng is reseeded from
// (Seed, i), so results do not depend on which worker draws the set.
func (e Estimator) sample(rng *rand.Rand, a core.Analyzer, bandwidthBPS float64, i int) (o sampleOutcome, err error) {
	const mix = int64(-7046029254386353131) // golden-ratio mixer (0x9E3779B97F4A7C15 as int64)
	rng.Seed(e.Seed ^ (mix * int64(i+1)))
	set, err := e.Generator.Draw(rng)
	if err != nil {
		return o, err
	}
	sat, err := Saturate(set, a, bandwidthBPS, e.Saturate)
	if err != nil {
		return o, fmt.Errorf("sample %d: %w", i, err)
	}
	o.probes = sat.Probes
	if !sat.Feasible {
		o.infeasible = true
		return o, nil
	}
	o.util = sat.Utilization
	return o, nil
}
