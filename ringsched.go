// Package ringsched reproduces Kamat & Zhao, "Real-Time Schedulability of
// Two Token Ring Protocols" (ICDCS 1993): exact schedulability criteria for
// hard-real-time synchronous message sets on token ring networks under the
// priority driven protocol of IEEE 802.5 (standard and modified variants,
// Theorem 4.1) and the timed token protocol of FDDI with the local
// synchronous bandwidth allocation scheme (Theorem 5.1), plus the average
// breakdown utilization methodology used to compare them (Figure 1).
//
// This file is the stable public facade: it re-exports the library's main
// types and constructors so downstream users never import internal
// packages. The feature areas are:
//
//   - network plants and message models (RingConfig, Stream, MessageSet,
//     Generator),
//   - schedulability analyzers (PDPAnalyzer, TTPAnalyzer, IdealRM,
//     allocation-scheme analyzers),
//   - the breakdown-utilization Monte Carlo engine (Estimator, Saturate),
//   - operational discrete-event simulators for both protocols
//     (PDPSimulation, TTPSimulation), and
//   - the reproduction experiments (Experiments, ExperimentByID).
//
// Quick start:
//
//	set, _ := ringsched.PaperGenerator().Draw(rand.New(rand.NewSource(1)))
//	ok, _ := ringsched.NewTTP(ringsched.Mbps(100)).Schedulable(set)
package ringsched

import (
	"context"
	"io"
	"math/rand"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/expt"
	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/rma"
	"ringsched/internal/service"
	"ringsched/internal/sim"
	"ringsched/internal/tokensim"
	"ringsched/internal/tokenstats"
	"ringsched/internal/topology"
	"ringsched/internal/ttpalloc"
)

// Network plant and workload model.
type (
	// RingConfig describes the physical token ring (topology, latency,
	// bandwidth); see the IEEE8025 and FDDI presets.
	RingConfig = ring.Config
	// Stream is one periodic synchronous message stream S_i.
	Stream = message.Stream
	// MessageSet is a synchronous message set M = {S_1..S_n}.
	MessageSet = message.Set
	// Generator draws random message sets for Monte Carlo estimation.
	Generator = message.Generator
	// PeriodModel selects the period distribution of a Generator.
	PeriodModel = message.PeriodModel
	// LengthModel selects the relative length mix of a Generator.
	LengthModel = message.LengthModel
	// FrameSpec is the fixed frame format (payload and overhead bits).
	FrameSpec = frame.Spec
	// Preset is a named built-in workload suite.
	Preset = message.Preset
)

// Presets returns the built-in workload suites (avionics,
// process-control, space-station, multimedia).
func Presets() []Preset { return message.Presets() }

// PresetByName looks up one built-in workload suite.
func PresetByName(name string) (Preset, error) { return message.PresetByName(name) }

// Analyzers.
type (
	// Analyzer is the schedulability interface every protocol implements.
	Analyzer = core.Analyzer
	// PDPAnalyzer is the Theorem 4.1 analyzer for the priority driven
	// protocol.
	PDPAnalyzer = core.PDP
	// PDPVariant selects the standard or modified 802.5 implementation.
	PDPVariant = core.Variant
	// PDPReport is the detailed Theorem 4.1 outcome.
	PDPReport = core.PDPReport
	// TTPAnalyzer is the Theorem 5.1 analyzer for the timed token
	// protocol with the local allocation scheme.
	TTPAnalyzer = core.TTP
	// TTPReport is the detailed Theorem 5.1 outcome.
	TTPReport = core.TTPReport
	// TTRTRule selects how TTRT is chosen at ring initialization.
	TTRTRule = core.TTRTRule
	// OverrunBudget selects the asynchronous-overrun allowance in θ.
	OverrunBudget = core.OverrunBudget
	// IdealRM is the zero-overhead rate-monotonic baseline of [10].
	IdealRM = core.IdealRM
	// AllocationScheme assigns TTP synchronous bandwidths h_i.
	AllocationScheme = ttpalloc.Scheme
	// AllocationAnalyzer adapts any AllocationScheme to Analyzer.
	AllocationAnalyzer = ttpalloc.Analyzer
	// Task and TaskSet expose the underlying rate-monotonic analysis for
	// abstract (cost, period) workloads.
	Task = rma.Task
	// TaskSet is an ordered set of Tasks.
	TaskSet = rma.TaskSet
	// RMWorkspace is the allocation-free rate-monotonic kernel: Load a
	// task set once, then rescale costs and re-run the verdict-only exact
	// test (Schedulable) with zero allocations per probe (the engine
	// behind the batched probes and the saturation search).
	RMWorkspace = rma.Workspace
	// Probe evaluates one bound message set at varying payload scales
	// without allocating; obtain one from a BatchAnalyzer.
	Probe = core.Probe
	// BatchAnalyzer is implemented by analyzers with an allocation-free
	// scaled-probe path (all protocol analyzers).
	BatchAnalyzer = core.BatchAnalyzer
)

// AnalyzeBatch evaluates one message set at each payload scale through the
// analyzer's pooled probe (bit-identical to per-scale Schedulable calls,
// without the per-call allocation).
func AnalyzeBatch(a Analyzer, m MessageSet, scales []float64) ([]bool, error) {
	return core.AnalyzeBatch(a, m, scales)
}

// PDP variants and TTRT rules.
const (
	// Standard8025 pays the token-pass overhead per frame.
	Standard8025 = core.Standard8025
	// Modified8025 pays it once per message.
	Modified8025 = core.Modified8025
	// TTRTSqrtHeuristic bids √(θ·P_i) per station (the paper's rule).
	TTRTSqrtHeuristic = core.TTRTSqrtHeuristic
	// TTRTHalfMinPeriod uses Pmin/2.
	TTRTHalfMinPeriod = core.TTRTHalfMinPeriod
	// TTRTFixed uses an explicitly configured value.
	TTRTFixed = core.TTRTFixed
	// OverrunSingleFrame is the paper's eq. (11): θ = Θ + F.
	OverrunSingleFrame = core.OverrunSingleFrame
	// OverrunPerStation budgets θ = Θ + n·F (conservative).
	OverrunPerStation = core.OverrunPerStation
)

// Workload generator distribution selectors.
const (
	// PeriodsUniform draws periods uniformly (the paper's comparison).
	PeriodsUniform = message.PeriodsUniform
	// PeriodsLogUniform spreads periods evenly across decades.
	PeriodsLogUniform = message.PeriodsLogUniform
	// PeriodsEqual gives every stream the mean period.
	PeriodsEqual = message.PeriodsEqual
	// PeriodsHarmonic draws periods as Pmin·2^k.
	PeriodsHarmonic = message.PeriodsHarmonic
	// LengthsProportional draws payloads proportional to the period.
	LengthsProportional = message.LengthsProportional
	// LengthsUniform draws payloads independent of the period.
	LengthsUniform = message.LengthsUniform
	// LengthsEqual gives every stream the same payload.
	LengthsEqual = message.LengthsEqual
)

// Breakdown-utilization engine.
type (
	// Estimator runs the Monte Carlo average-breakdown estimation.
	Estimator = breakdown.Estimator
	// Estimate is one Monte Carlo estimate with confidence interval.
	Estimate = breakdown.Estimate
	// Saturation is one set driven to its breakdown load.
	Saturation = breakdown.Saturation
	// SaturateOptions tunes the saturation binary search.
	SaturateOptions = breakdown.SaturateOptions
	// Series is one breakdown-vs-bandwidth curve (a Figure 1 line).
	Series = breakdown.Series
)

// Simulators.
type (
	// PDPSimulation is the operational priority-driven-protocol
	// simulator.
	PDPSimulation = tokensim.PDPSim
	// TTPSimulation is the operational timed-token (FDDI) simulator.
	TTPSimulation = tokensim.TTPSim
	// ReservationSimulation is the faithful IEEE 802.5 priority/
	// reservation MAC simulator (token priority field, reservation bits,
	// stacking stations, configurable priority levels).
	ReservationSimulation = tokensim.ReservationSim
	// ReservationResult extends SimResult with arbitration metrics.
	ReservationResult = tokensim.ReservationResult
	// SimResult is a simulation outcome (deadline misses, occupancy,
	// rotation statistics).
	SimResult = tokensim.Result
	// Workload binds streams to ring stations with explicit phasing.
	Workload = tokensim.Workload
	// Tracer observes simulator events (frames, token passes,
	// completions) as they occur.
	Tracer = tokensim.Tracer
	// TraceEvent is one observed simulator event.
	TraceEvent = tokensim.TraceEvent
	// TraceKind classifies trace events.
	TraceKind = tokensim.TraceKind
	// WriterTracer logs trace events as text lines.
	WriterTracer = tokensim.WriterTracer
	// CountingTracer tallies trace events by kind.
	CountingTracer = tokensim.CountingTracer
	// TokenStatsCollector derives token rotation/walk statistics from a
	// simulator's event stream; attach it as (or tee it into) a Tracer.
	TokenStatsCollector = tokenstats.Collector
	// TokenStats is the distilled token telemetry of one simulated run,
	// comparable against the analysis's walk time WT = Θ and TTRT.
	TokenStats = tokenstats.Summary
	// Faults injects failures into simulations (alias of FaultModel kept
	// for compatibility with earlier releases).
	Faults = tokensim.Faults
)

// MultiTracer fans simulator events out to every non-nil tracer, in order.
func MultiTracer(tracers ...Tracer) Tracer { return tokensim.MultiTracer(tracers...) }

// Fault injection and degraded-mode analysis.
type (
	// FaultModel composes the failure processes injected into a
	// simulation: token loss, frame corruption (Bernoulli or
	// Gilbert–Elliott), and station crash/restart with bypass latency.
	FaultModel = faults.Model
	// FaultRecovery prices the claim/beacon recovery that follows a
	// token loss.
	FaultRecovery = faults.Recovery
	// FaultChannel is the frame-corruption channel model.
	FaultChannel = faults.Channel
	// FaultChannelKind selects the corruption channel family.
	FaultChannelKind = faults.ChannelKind
	// FaultCrash is the station crash/restart process.
	FaultCrash = faults.Crash
	// FaultScenario is a named, documented fault model preset.
	FaultScenario = faults.Scenario
	// FaultBudget folds a fault model into the analytic degraded-mode
	// charges (see PDPAnalyzer.FaultReport, TTPAnalyzer.FaultReport).
	FaultBudget = core.FaultBudget
)

// Corruption channel families.
const (
	// ChannelClean disables frame corruption.
	ChannelClean = faults.ChannelClean
	// ChannelBernoulli corrupts frames independently.
	ChannelBernoulli = faults.ChannelBernoulli
	// ChannelGilbertElliott corrupts frames through a two-state bursty
	// channel.
	ChannelGilbertElliott = faults.ChannelGilbertElliott
)

// ParseFaultModel parses a fault-model spec string such as
// "loss:p=1e-3+gilbert:pbad=0.3,burst=16+crash:rate=0.05"; "none" yields an
// inactive model.
func ParseFaultModel(spec string) (FaultModel, error) { return faults.ParseModel(spec) }

// FaultScenarios returns the named built-in fault scenarios (clean,
// noisy-channel, lossy-token, flaky-stations, degraded).
func FaultScenarios() []FaultScenario { return faults.Scenarios() }

// FaultScenarioByName looks up one built-in fault scenario.
func FaultScenarioByName(name string) (FaultScenario, error) {
	return faults.ScenarioByName(name)
}

// CleanFaultBudget is the healthy-ring analytic budget; every fault-aware
// analysis reproduces the clean result bit-identically under it.
func CleanFaultBudget() FaultBudget { return core.CleanFaultBudget() }

// Phasing and token-pass models for the simulators.
const (
	// PhasingSynchronized releases every stream at time zero (the
	// critical instant).
	PhasingSynchronized = tokensim.PhasingSynchronized
	// PhasingRandom draws random initial offsets.
	PhasingRandom = tokensim.PhasingRandom
	// PassMeasured charges geometric token walks in the PDP simulator.
	PassMeasured = tokensim.PassMeasured
	// PassAverageHalfTheta charges the analysis's Θ/2 average.
	PassAverageHalfTheta = tokensim.PassAverageHalfTheta
)

// Experiments.
type (
	// Experiment is one reproduction unit (a figure, table, or claim).
	Experiment = expt.Experiment
	// ExperimentConfig scales experiment cost.
	ExperimentConfig = expt.Config
	// ExperimentReport is an experiment outcome.
	ExperimentReport = expt.Report
	// ExperimentOutcome is one experiment's result within a RunExperiments
	// batch.
	ExperimentOutcome = expt.Outcome
)

// Cancellation and progress observation.
type (
	// Progress observes long-running work: Monte Carlo samples, sweep
	// points, experiment lifecycle, and simulator event-loop advancement.
	// All context-aware entry points accept one (nil disables reporting).
	Progress = progress.Progress
	// ProgressFuncs adapts plain functions to the Progress interface; the
	// zero value ignores everything.
	ProgressFuncs = progress.Funcs
	// CountingProgress tallies progress callbacks with atomic counters,
	// safe for concurrent pipelines.
	CountingProgress = progress.Counter
	// ProgressMeter renders a live single-line progress display (percent,
	// ETA, current sweep point) to a writer, typically stderr.
	ProgressMeter = progress.Meter
)

// NopProgress returns a Progress that ignores every callback.
func NopProgress() Progress { return progress.Nop{} }

// TeeProgress fans callbacks out to several observers.
func TeeProgress(obs ...Progress) Progress { return progress.Tee(obs...) }

// NewProgressMeter returns a live progress meter writing to w;
// totalSamples sets the denominator for percent/ETA (0 disables them).
// Call Close when done to finish the line.
func NewProgressMeter(w io.Writer, totalSamples int64) *ProgressMeter {
	return progress.NewMeter(w, totalSamples)
}

// Serving layer: the request/response schema and engine of ringschedd,
// shared by the HTTP API and the -json modes of schedcheck and breakdown
// so their outputs are byte-comparable.
type (
	// ServiceStreamSpec is the wire form of one message stream.
	ServiceStreamSpec = service.StreamSpec
	// AnalyzeRequest asks for schedulability verdicts.
	AnalyzeRequest = service.AnalyzeRequest
	// AnalyzeResponse carries per-protocol verdicts.
	AnalyzeResponse = service.AnalyzeResponse
	// AnalyzeVerdict is one protocol's verdict.
	AnalyzeVerdict = service.Verdict
	// SweepRequest asks for a breakdown-utilization sweep.
	SweepRequest = service.SweepRequest
	// SweepResponse carries the per-protocol breakdown curves.
	SweepResponse = service.SweepResponse
	// ServiceConfig tunes a Service (cache budget, worker pool, deadlines).
	ServiceConfig = service.Config
	// Service is the ringschedd HTTP API implementation.
	Service = service.Server
)

// NewService builds the ringschedd HTTP API; expose it with
// Service.Handler and stop it with BeginDrain followed by Close.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Analyze answers one analyze request (the engine behind /v1/analyze and
// schedcheck -json). The response is a pure function of the
// canonicalized request.
func Analyze(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
	return service.Analyze(ctx, req)
}

// RunSweep answers one sweep request (the engine behind /v1/sweep and
// breakdown -json). workers bounds parallelism without affecting the
// result; obs may be nil.
func RunSweep(ctx context.Context, req SweepRequest, workers int, obs Progress) (SweepResponse, error) {
	return service.Sweep(ctx, req, workers, obs)
}

// EncodeResponse renders a service response in the canonical byte form
// shared by the server and the -json CLI modes.
func EncodeResponse(v any) ([]byte, error) { return service.Encode(v) }

// ErrUnknownScenario reports a fault-scenario name that is not
// registered; FaultScenarioByName errors match it with errors.Is.
var ErrUnknownScenario = faults.ErrUnknownScenario

// ErrBadFaultSpec reports an unparsable fault-model specification;
// ParseFaultModel errors match it with errors.Is.
var ErrBadFaultSpec = faults.ErrBadSpec

// ErrMaxEvents reports that a simulation exhausted its MaxEvents budget.
var ErrMaxEvents = sim.ErrMaxEvents

// Mbps converts megabits/second to bits/second.
func Mbps(m float64) float64 { return ring.Mbps(m) }

// IEEE8025Plant returns the paper's IEEE 802.5 network at the given
// bandwidth (100 stations, 100 m spacing, 4-bit station delay).
func IEEE8025Plant(bandwidthBPS float64) RingConfig { return ring.IEEE8025(bandwidthBPS) }

// FDDIPlant returns the paper's FDDI network at the given bandwidth
// (100 stations, 100 m spacing, 75-bit station delay).
func FDDIPlant(bandwidthBPS float64) RingConfig { return ring.FDDI(bandwidthBPS) }

// PaperFrame returns the 64-byte/112-bit frame format of the comparison.
func PaperFrame() FrameSpec { return frame.PaperSpec() }

// PaperGenerator returns the paper's workload distribution: 100 streams,
// uniform periods with mean 100 ms and max/min ratio 10.
func PaperGenerator() Generator { return message.PaperGenerator() }

// NewStandardPDP returns the Theorem 4.1 analyzer for the unmodified IEEE
// 802.5 implementation on the paper's plant.
func NewStandardPDP(bandwidthBPS float64) PDPAnalyzer { return core.NewStandardPDP(bandwidthBPS) }

// NewModifiedPDP returns the Theorem 4.1 analyzer for the modified
// implementation on the paper's plant.
func NewModifiedPDP(bandwidthBPS float64) PDPAnalyzer { return core.NewModifiedPDP(bandwidthBPS) }

// NewTTP returns the Theorem 5.1 analyzer on the paper's FDDI plant.
func NewTTP(bandwidthBPS float64) TTPAnalyzer { return core.NewTTP(bandwidthBPS) }

// PaperEstimator returns a Monte Carlo estimator with the paper's workload
// distribution.
func PaperEstimator(samples int, seed int64) Estimator {
	return breakdown.PaperEstimator(samples, seed)
}

// PaperBandwidths returns the Figure 1 sweep grid: 1 Mbps to 1 Gbps,
// log-spaced with pointsPerDecade points per decade (0 = default density).
func PaperBandwidths(pointsPerDecade int) []float64 {
	return breakdown.PaperBandwidths(pointsPerDecade)
}

// Saturate drives a message set to its breakdown load under an analyzer.
func Saturate(m MessageSet, a Analyzer, bandwidthBPS float64, opts SaturateOptions) (Saturation, error) {
	return breakdown.Saturate(m, a, bandwidthBPS, opts)
}

// Phasing selects stream arrival offsets for simulation workloads.
type Phasing = tokensim.Phasing

// NewWorkload binds a message set to ring stations for simulation. The rng
// is only consulted for PhasingRandom.
func NewWorkload(m MessageSet, stations int, phasing Phasing, rng *rand.Rand) (Workload, error) {
	return tokensim.NewWorkload(m, stations, phasing, rng)
}

// NewTTPSimulation builds a TTP simulator whose TTRT and allocations come
// from the Theorem 5.1 analysis of the given set.
func NewTTPSimulation(t TTPAnalyzer, m MessageSet, w Workload) (TTPSimulation, error) {
	return tokensim.NewTTPSimFromAnalysis(t, m, w)
}

// Bridged ring-of-rings topologies: multiple rings joined by
// store-and-forward bridges, with end-to-end flow delay bounds from
// per-ring Kamat–Zhao verdicts composed with arrival-curve propagation.
// The single-ring API above is the 1-node special case.
type (
	// Topology is a validated graph of ring nodes, bridge edges and
	// end-to-end flows.
	Topology = topology.Topology
	// TopologyNode is one ring in the graph.
	TopologyNode = topology.Node
	// TopologyBridge is one store-and-forward bridge edge.
	TopologyBridge = topology.Bridge
	// TopologyFlow is one periodic end-to-end flow.
	TopologyFlow = topology.Flow
	// TopologyProtocol selects a node's MAC protocol.
	TopologyProtocol = topology.Protocol
	// TopologyReport is the full bridged analysis: per-ring verdicts,
	// per-bridge network-calculus bounds, per-flow end-to-end bounds.
	TopologyReport = core.TopologyReport
	// TopologySimulation composes the PDP/TTP discrete-event engines
	// through bridge queues into one multi-ring simulation.
	TopologySimulation = tokensim.TopologySim
	// TopologySimResult is a multi-ring simulation outcome.
	TopologySimResult = tokensim.TopologyResult
	// TopologySaturation is a topology driven to its breakdown load.
	TopologySaturation = breakdown.TopologySaturation
	// TopologyPoint is one point of a topology breakdown sweep.
	TopologyPoint = breakdown.TopologyPoint
	// TopologyRequest asks the serving layer for a bridged analysis.
	TopologyRequest = service.TopologyRequest
	// TopologyResponse is the wire form of a bridged analysis.
	TopologyResponse = service.TopologyResponse
)

// Topology node protocols.
const (
	// Topology8025 runs a node under the standard priority driven protocol.
	Topology8025 = topology.Standard8025
	// Topology8025Mod runs a node under the modified variant.
	Topology8025Mod = topology.Modified8025
	// TopologyFDDI runs a node under the timed token protocol.
	TopologyFDDI = topology.FDDI
)

// ParseTopology parses the compact topology spec grammar
// ("ring:name=a,proto=fddi,bw=100e6 + bridge:a=a,b=b,latency=100us +
// flow:name=f,src=a,dst=b,period=100ms,bits=4096") into a validated,
// canonical topology.
func ParseTopology(spec string) (Topology, error) { return topology.Parse(spec) }

// AnalyzeTopology computes the bridged verdict: every ring analyzed under
// its own protocol, arrival curves propagated across bridges, and one
// end-to-end delay bound per flow.
func AnalyzeTopology(t Topology) (TopologyReport, error) { return core.AnalyzeTopology(t) }

// AnalyzeTopologyRequest answers one serving-layer topology request (the
// engine behind /v1/topology/analyze and schedcheck -topology -json).
func AnalyzeTopologyRequest(ctx context.Context, req TopologyRequest) (TopologyResponse, error) {
	return service.AnalyzeTopology(ctx, req)
}

// SaturateTopology drives a topology's flows to their common breakdown
// scale.
func SaturateTopology(t Topology, opts SaturateOptions) (TopologySaturation, error) {
	return breakdown.SaturateTopology(t, opts)
}

// SweepTopology computes the breakdown scale across a grid of bandwidth
// multipliers (the Figure 1 methodology lifted to bridged topologies).
func SweepTopology(ctx context.Context, t Topology, bandwidthScales []float64, opts SaturateOptions, obs Progress) ([]TopologyPoint, error) {
	return breakdown.SweepTopology(ctx, t, bandwidthScales, opts, obs)
}

// RMResult is the detailed outcome of a rate-monotonic exact test.
type RMResult = rma.Result

// ResponseTimeAnalysis runs the exact rate-monotonic test on an RM-ordered
// task set with a uniform blocking term (the engine behind Theorem 4.1);
// see also TaskSet.SortRM.
func ResponseTimeAnalysis(ts TaskSet, blocking float64) (RMResult, error) {
	return rma.ResponseTimeAnalysis(ts, blocking)
}

// RMExactTest answers the exact rate-monotonic test (Theorem 4.1's
// Lehoczky–Sha–Ding criterion) with ResponseTimeAnalysis's verdict and
// first failure; its ResponseTimes is nil.
func RMExactTest(ts TaskSet, blocking float64) (RMResult, error) {
	res, err := rma.ResponseTimeAnalysis(ts, blocking)
	res.ResponseTimes = nil
	return res, err
}

// LiuLaylandBound is the classical sufficient utilization bound
// n·(2^{1/n} − 1).
func LiuLaylandBound(n int) float64 { return rma.LiuLaylandBound(n) }

// HyperbolicSchedulable is the Bini–Buttazzo sufficient test Π(U_i+1) ≤ 2.
func HyperbolicSchedulable(ts TaskSet) bool { return rma.HyperbolicSchedulable(ts) }

// Experiments lists every reproduction experiment (sorted by ID).
func Experiments() []Experiment { return expt.All() }

// ExperimentByID looks up one reproduction experiment.
func ExperimentByID(id string) (Experiment, error) { return expt.ByID(id) }

// RunExperiment executes one experiment with cancellation and progress
// reporting (obs may be nil).
func RunExperiment(ctx context.Context, e Experiment, cfg ExperimentConfig, obs Progress) (ExperimentReport, error) {
	return expt.RunOne(ctx, e, cfg, obs)
}

// RunExperiments executes independent experiments concurrently and returns
// one outcome per experiment in deterministic ID order. Cancelling ctx
// aborts promptly; never-dispatched experiments carry Err = ctx.Err().
func RunExperiments(ctx context.Context, cfg ExperimentConfig, obs Progress, exps []Experiment) []ExperimentOutcome {
	return expt.RunAll(ctx, cfg, obs, exps)
}
