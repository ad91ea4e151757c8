// Package expt defines the reproduction experiments: one entry per figure,
// table, and quantitative claim of the paper's evaluation (see DESIGN.md's
// experiment index), plus the ablations the paper mentions running but
// omits for space. The command-line tools and the benchmark harness both
// drive experiments through this package, so the printed rows are identical
// everywhere.
package expt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"ringsched/internal/breakdown"
	"ringsched/internal/par"
	"ringsched/internal/progress"
	"ringsched/internal/trace"
)

// ErrUnknownExperiment is returned by ByID for unregistered IDs.
var ErrUnknownExperiment = errors.New("expt: unknown experiment id")

// Config scales every experiment's cost. The zero value takes defaults
// suitable for regenerating the paper's numbers in a few minutes.
type Config struct {
	// Samples is the Monte Carlo sample count per estimate (default 100).
	Samples int
	// Seed makes runs reproducible (default 1993, the paper's year).
	Seed int64
	// PointsPerDecade sets the bandwidth grid density for sweeps
	// (default 3).
	PointsPerDecade int
	// Quick trims grids and sample counts for use in -short tests.
	Quick bool
	// Workers is the total parallelism budget (0 = GOMAXPROCS). Within one
	// experiment it bounds the Monte Carlo pools; RunAll splits it across
	// concurrently executing experiments. Results never depend on the
	// worker count — only wall-clock time does.
	Workers int
}

// estimator applies the Config's worker budget and the run's observer to
// an estimator; every experiment routes its estimators through this so
// -workers and progress reporting reach the sample level.
func (c Config) estimator(e breakdown.Estimator, obs progress.Progress) breakdown.Estimator {
	e.Workers = c.Workers
	e.Progress = obs
	return e
}

func (c Config) withDefaults() Config {
	if c.Samples <= 0 {
		c.Samples = 100
	}
	if c.Seed == 0 {
		c.Seed = 1993
	}
	if c.PointsPerDecade <= 0 {
		c.PointsPerDecade = 3
	}
	if c.Quick {
		if c.Samples > 25 {
			c.Samples = 25
		}
		if c.PointsPerDecade > 2 {
			c.PointsPerDecade = 2
		}
	}
	return c
}

// Report is one experiment's outcome.
type Report struct {
	// ID and Title echo the experiment.
	ID, Title string
	// Text is the formatted human-readable result (tables, plots).
	Text string
	// Values holds headline scalar results keyed by a stable name, so
	// benchmarks can report them as metrics and tests can assert on them.
	Values map[string]float64
	// Pass is false when the experiment's acceptance check (the paper's
	// qualitative claim) did not hold.
	Pass bool
	// Notes lists qualitative observations, including any failures.
	Notes []string
}

func (r *Report) addValue(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is a named, runnable reproduction unit.
type Experiment struct {
	// ID is the index key from DESIGN.md (e.g. "FIG1").
	ID string
	// Title summarizes what the paper reports.
	Title string
	// Run executes the experiment. Cancelling ctx aborts the experiment's
	// sweeps, estimates, and simulations promptly with ctx.Err(); obs (may
	// be nil) observes per-sample and per-point progress. Prefer RunOne,
	// which adds the lifecycle callbacks.
	Run func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error)
}

// RunOne executes one experiment, wrapping it in ExperimentStarted /
// ExperimentFinished progress callbacks.
func RunOne(ctx context.Context, e Experiment, cfg Config, obs progress.Progress) (Report, error) {
	ctx, sp := trace.Start(ctx, "expt.run")
	defer sp.End()
	sp.SetAttr("id", e.ID)
	sp.SetAttr("title", e.Title)
	o := progress.OrNop(obs)
	o.ExperimentStarted(e.ID, e.Title)
	rep, err := e.Run(ctx, cfg, obs)
	o.ExperimentFinished(e.ID, err == nil && rep.Pass, err)
	sp.SetError(err)
	sp.SetAttr("pass", err == nil && rep.Pass)
	return rep, err
}

// Outcome is one experiment's result within a RunAll batch.
type Outcome struct {
	// Experiment identifies the unit that ran.
	Experiment Experiment
	// Report is the result when Err is nil.
	Report Report
	// Err is the execution error; ctx.Err() for experiments that were
	// never dispatched because the batch was canceled.
	Err error
	// Elapsed is the experiment's own wall-clock time (zero when it never
	// ran).
	Elapsed time.Duration
}

// RunAll executes independent experiments concurrently and returns one
// Outcome per experiment in deterministic ID order, regardless of
// completion order. The Config's worker budget is split between
// experiment-level concurrency and each experiment's Monte Carlo pools.
// Cancelling ctx stops dispatching new experiments; already-running ones
// abort promptly via their own ctx plumbing, and never-dispatched ones are
// reported with Err = ctx.Err().
func RunAll(ctx context.Context, cfg Config, obs progress.Progress, exps []Experiment) []Outcome {
	if len(exps) == 0 {
		return nil
	}
	expWorkers, childWorkers := par.Split(cfg.Workers, len(exps))
	childCfg := cfg
	childCfg.Workers = childWorkers

	outcomes := make([]Outcome, len(exps))
	ran := make([]bool, len(exps))
	// An experiment's error is its outcome's, never the batch's: fn never
	// fails, and For can only report ctx.Err(), which ran shows below.
	par.For(ctx, expWorkers, len(exps), func(ctx context.Context, _, i int) error {
		ran[i] = true
		start := time.Now()
		rep, err := RunOne(ctx, exps[i], childCfg, obs)
		outcomes[i] = Outcome{Report: rep, Err: err, Elapsed: time.Since(start)}
		return nil
	})
	for i := range outcomes {
		outcomes[i].Experiment = exps[i]
		if !ran[i] {
			// Never dispatched: the batch was canceled first.
			outcomes[i].Err = ctx.Err()
		}
	}
	sort.Slice(outcomes, func(i, j int) bool {
		return outcomes[i].Experiment.ID < outcomes[j].Experiment.ID
	})
	return outcomes
}

// All returns every experiment, sorted by ID. The registry is rebuilt on
// each call (experiments are cheap descriptors; only Run costs anything).
func All() []Experiment {
	out := []Experiment{
		fig1Experiment(),
		claimLowBandwidth(),
		claimHighBandwidth(),
		claimModifiedDominates(),
		claimTTRTSelection(),
		claimMinimumBreakdownTTP(),
		baselineIdealRM(),
		ablationPeriods(),
		ablationFrameSize(),
		ablationStations(),
		ablationAllocationSchemes(),
		validateSimulation(),
		extensionFaultTolerance(),
		extensionPriorityLevels(),
		extensionPhasing(),
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}
