// Package service implements ringschedd, the schedulability-analysis
// service: an HTTP JSON API over the library's analyzers, breakdown
// engine, and reproduction experiments. The serving layer adds what a
// parameter-sweeping practitioner needs at scale and the CLIs cannot
// give them:
//
//   - a canonical request form and hasher, so permuted, reformatted, or
//     otherwise equivalent requests map to one cache key (hash.go),
//   - a sharded LRU result cache with a byte budget, serving repeated
//     questions without recomputation (cache.go), and an alias in it from
//     exact request bodies to canonical keys, so a repeated body is served
//     without being decoded (alias.go),
//   - a bounded worker pool with request coalescing, so N concurrent
//     identical requests perform exactly one computation (pool.go),
//   - Prometheus-text metrics and SSE progress streaming (metrics.go,
//     server.go), and
//   - graceful shutdown: drain in-flight jobs, reject new work with 503.
//
// The same Analyze/Sweep entry points back the -json modes of the
// schedcheck and breakdown CLIs, so CLI and server outputs are
// byte-comparable.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/expt"
	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/ringstate"
	"ringsched/internal/rma"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
)

// Protocol slugs accepted in request "protocols" lists (see package wire).
const (
	ProtocolModifiedPDP = wire.ProtocolModifiedPDP
	ProtocolStandardPDP = wire.ProtocolStandardPDP
	ProtocolTTP         = wire.ProtocolTTP
)

// Errors returned by request validation.
var (
	ErrBadRequest      = errors.New("service: bad request")
	ErrUnknownProtocol = wire.ErrUnknownProtocol
)

// The verdict vocabulary every route shares is package wire's.
type (
	StreamSpec      = wire.StreamSpec
	ScaleVerdict    = wire.ScaleVerdict
	StreamVerdict   = wire.StreamVerdict
	DegradedVerdict = wire.DegradedVerdict
	Verdict         = wire.Verdict
)

// AnalyzeRequest asks whether a message set is schedulable on the
// requested protocols at one bandwidth, optionally under a fault model.
// FaultModel (a spec string such as "loss:p=1e-3+gilbert:burst=16") and
// Scenario (a named preset) are mutually exclusive.
type AnalyzeRequest struct {
	// Protocols lists the protocol slugs to analyze; empty means all three.
	Protocols []string `json:"protocols,omitempty"`
	// BandwidthMbps is the network bandwidth in Mbps.
	BandwidthMbps float64 `json:"bandwidthMbps"`
	// Streams is the synchronous message set.
	Streams []StreamSpec `json:"streams"`
	// FaultModel is a fault-model spec string for a side-by-side
	// degraded-mode verdict ("" or "none" disables it).
	FaultModel string `json:"faultModel,omitempty"`
	// Scenario is a named built-in fault scenario.
	Scenario string `json:"scenario,omitempty"`
	// Detail includes per-stream verdicts in the response.
	Detail bool `json:"detail,omitempty"`
	// PayloadScales optionally asks, for each factor, whether the set stays
	// schedulable with every payload multiplied by it ("how much headroom
	// does this set have?"). The whole list is evaluated through one pooled
	// batch probe per protocol; verdicts are identical to analyzing each
	// scaled set separately.
	PayloadScales []float64 `json:"payloadScales,omitempty"`
}

// AnalyzeResponse is the /v1/analyze result. FaultModel echoes the
// canonical fault spec the verdicts assumed ("" for a clean ring).
type AnalyzeResponse struct {
	CacheKey      string    `json:"cacheKey"`
	BandwidthMbps float64   `json:"bandwidthMbps"`
	FaultModel    string    `json:"faultModel,omitempty"`
	Verdicts      []Verdict `json:"verdicts"`
}

// SweepRequest asks for a Figure 1-style breakdown-utilization sweep.
// The zero value of every field selects the paper's defaults.
type SweepRequest struct {
	// Protocols lists the protocol slugs to sweep; empty means all three.
	Protocols []string `json:"protocols,omitempty"`
	// BandwidthsMbps is the sweep grid; empty derives the paper's
	// log-spaced 1 Mbps – 1 Gbps grid from PointsPerDecade.
	BandwidthsMbps []float64 `json:"bandwidthsMbps,omitempty"`
	// PointsPerDecade sets the default grid density (default 3).
	PointsPerDecade int `json:"pointsPerDecade,omitempty"`
	// Streams is the station/stream count of the random workload
	// (default 100).
	Streams int `json:"streams,omitempty"`
	// MeanPeriodMs is the mean message period in ms (default 100).
	MeanPeriodMs float64 `json:"meanPeriodMs,omitempty"`
	// PeriodRatio is the max/min period ratio (default 10).
	PeriodRatio float64 `json:"periodRatio,omitempty"`
	// Samples is the Monte Carlo sample count per point (default 100).
	Samples int `json:"samples,omitempty"`
	// Seed makes the sweep reproducible (default 1993).
	Seed int64 `json:"seed,omitempty"`
}

// SweepPoint is one (bandwidth, estimate) pair.
type SweepPoint struct {
	BandwidthMbps float64 `json:"bandwidthMbps"`
	Mean          float64 `json:"mean"`
	CI95          float64 `json:"ci95"`
	P10           float64 `json:"p10"`
	Median        float64 `json:"median"`
	P90           float64 `json:"p90"`
	Infeasible    int     `json:"infeasible,omitempty"`
}

// SweepSeries is one protocol's breakdown curve.
type SweepSeries struct {
	Protocol string       `json:"protocol"`
	Name     string       `json:"name"`
	Points   []SweepPoint `json:"points"`
}

// SweepResponse is the /v1/sweep result; Request echoes the canonical
// request with every default resolved.
type SweepResponse struct {
	CacheKey string        `json:"cacheKey"`
	Request  SweepRequest  `json:"request"`
	Series   []SweepSeries `json:"series"`
}

// ExperimentInfo describes one runnable reproduction experiment.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// ExperimentsRequest runs a batch of reproduction experiments.
type ExperimentsRequest struct {
	// IDs selects experiments; empty runs all of them.
	IDs []string `json:"ids,omitempty"`
	// Samples, Seed, PointsPerDecade and Quick scale the runs as
	// expt.Config does.
	Samples         int   `json:"samples,omitempty"`
	Seed            int64 `json:"seed,omitempty"`
	PointsPerDecade int   `json:"pointsPerDecade,omitempty"`
	Quick           bool  `json:"quick,omitempty"`
}

// ExperimentResult is one experiment's outcome within a batch.
type ExperimentResult struct {
	ID     string             `json:"id"`
	Title  string             `json:"title"`
	Pass   bool               `json:"pass"`
	Error  string             `json:"error,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// ExperimentsResponse is the /v1/experiments result.
type ExperimentsResponse struct {
	Results []ExperimentResult `json:"results"`
}

// Encode renders a response body in the canonical form shared by the
// server and the -json CLI modes: two-space-indented JSON with a trailing
// newline, the bytes json.MarshalIndent plus '\n' gives. Cache entries
// store exactly these bytes, so a cache hit is bit-identical to the
// original response. The three hot response types go through appendBody,
// which writes them without reflection; anything it declines, and every
// other type, goes through a pooled json.Encoder. Either way the body is
// rendered into pooled scratch and copied out at its exact length, so the
// cache's byte budget charges what it holds.
func Encode(v any) ([]byte, error) {
	b, _, err := encode(v)
	return b, err
}

// encode is Encode reporting whether appendBody wrote the body.
func encode(v any) (body []byte, appended bool, err error) {
	e := encoderPool.Get().(*encoder)
	defer e.release()
	if e.out, appended = appendBody(e.out[:0], v); appended {
		return exactCopy(e.out), true, nil
	}
	body, err = e.marshal(v)
	return body, false, err
}

// exactCopy copies b into a slice whose capacity is its length.
func exactCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// encoder is a json.Encoder set up for Encode's form, with the buffer it
// writes to, and appendBody's scratch; all keep their capacity between
// uses.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
	out []byte
}

var encoderPool = sync.Pool{New: func() any {
	e := &encoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// marshal renders v with encoding/json.
func (e *encoder) marshal(v any) ([]byte, error) {
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	return exactCopy(e.buf.Bytes()), nil
}

// release returns the encoder to the pool unless a large body grew it
// (the encoder's own indent buffer grows with the buffer it fills).
func (e *encoder) release() {
	if e.buf.Cap() > maxPooledBuf || cap(e.out) > maxPooledBuf {
		return
	}
	e.buf.Reset()
	encoderPool.Put(e)
}

// encodeTraced is Encode under an "encode" span, so response marshalling
// shows up as its own stage in traces and the stage-latency histograms.
// The span's encoder attribute names what wrote the body: "append"
// (appendBody) or "json" (encoding/json).
func encodeTraced(ctx context.Context, v any) ([]byte, error) {
	sp := trace.StartLeaf(ctx, "encode")
	defer sp.End()
	b, appended, err := encode(v)
	if appended {
		sp.SetAttr("encoder", "append")
	} else {
		sp.SetAttr("encoder", "json")
	}
	sp.SetError(err)
	return b, err
}

// canonFloat collapses a float to its canonical value: -0 becomes +0, so
// both zeros hash and marshal identically. NaN and ±Inf are rejected by
// validation before canonicalization.
func canonFloat(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

func badFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// canonFaultSpec resolves the FaultModel/Scenario pair to its canonical
// spec (wire.ResolveFaults) as a request error.
func canonFaultSpec(spec, scenario string) (string, error) {
	canon, _, err := wire.ResolveFaults(spec, scenario)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return canon, nil
}

// Canonicalize validates the request and returns its canonical form: the
// protocol list deduped and ordered, the fault spec resolved and
// normalized, floats collapsed (-0 → +0), and the streams sorted to
// rate-monotonic order with deterministic tie-breaking. Two requests that
// differ only in stream order, float formatting, or fault-spec spelling
// canonicalize identically — and therefore share one cache key and one
// bit-identical response body.
//
// Stream multiplicity is preserved: two identical streams are two
// stations' worth of load, not a duplicate to drop.
func (r AnalyzeRequest) Canonicalize() (AnalyzeRequest, error) {
	out := r
	var err error
	if out.Protocols, err = wire.Protocols(r.Protocols); err != nil {
		return AnalyzeRequest{}, err
	}
	if out.BandwidthMbps <= 0 || badFloat(out.BandwidthMbps) {
		return AnalyzeRequest{}, fmt.Errorf("%w: bandwidthMbps must be positive and finite, got %v",
			ErrBadRequest, out.BandwidthMbps)
	}
	out.BandwidthMbps = canonFloat(out.BandwidthMbps)
	spec, err := canonFaultSpec(r.FaultModel, r.Scenario)
	if err != nil {
		return AnalyzeRequest{}, err
	}
	out.FaultModel, out.Scenario = spec, ""
	out.Streams = make([]StreamSpec, len(r.Streams))
	for i, s := range r.Streams {
		out.Streams[i] = StreamSpec{
			Name:       s.Name,
			PeriodMs:   canonFloat(s.PeriodMs),
			LengthBits: canonFloat(s.LengthBits),
		}
	}
	slices.SortStableFunc(out.Streams, wire.CompareStreams)
	if len(r.PayloadScales) > 0 {
		out.PayloadScales = make([]float64, 0, len(r.PayloadScales))
		for _, s := range r.PayloadScales {
			if s <= 0 || badFloat(s) {
				return AnalyzeRequest{}, fmt.Errorf("%w: payloadScales must be positive and finite, got %v",
					ErrBadRequest, s)
			}
			out.PayloadScales = append(out.PayloadScales, canonFloat(s))
		}
		// Ascending and deduped: probing one scale twice is pure waste, and
		// the order carries no meaning beyond presentation.
		sort.Float64s(out.PayloadScales)
		n := 0
		for _, s := range out.PayloadScales {
			if n == 0 || s != out.PayloadScales[n-1] {
				out.PayloadScales[n] = s
				n++
			}
		}
		out.PayloadScales = out.PayloadScales[:n]
	} else {
		out.PayloadScales = nil
	}
	if err := out.messageSet().Validate(); err != nil {
		return AnalyzeRequest{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := payloadsInRange(r.Streams, out.PayloadScales); err != nil {
		return AnalyzeRequest{}, err
	}
	return out, nil
}

// payloadsInRange rejects payloads the analysis cannot represent: a
// stream's lengthBits at or past frame.MaxPayloadBits, or a payload scale that
// carries one past it or down to zero bits. The streams are in request
// order, so the error names the stream the client sent; scales are
// canonical (ascending).
func payloadsInRange(streams []StreamSpec, scales []float64) error {
	lo, hi := 1.0, 1.0
	if n := len(scales); n > 0 {
		lo, hi = scales[0], scales[n-1]
	}
	for i, s := range streams {
		switch {
		case s.LengthBits >= frame.MaxPayloadBits:
			return fmt.Errorf("%w: streams[%d].lengthBits %v is at or past 2^72 bits (2^63 frames of %v bits)",
				ErrBadRequest, i, s.LengthBits, frame.PaperInfoBits)
		case s.LengthBits*hi >= frame.MaxPayloadBits:
			return fmt.Errorf("%w: payloadScales %v carries streams[%d].lengthBits %v to 2^72 bits or past (2^63 frames of %v bits)",
				ErrBadRequest, hi, i, s.LengthBits, frame.PaperInfoBits)
		case s.LengthBits*lo == 0:
			return fmt.Errorf("%w: payloadScales %v carries streams[%d].lengthBits %v down to 0 bits",
				ErrBadRequest, lo, i, s.LengthBits)
		}
	}
	return nil
}

// messageSet converts the wire streams to the analysis model.
func (r AnalyzeRequest) messageSet() message.Set {
	set := make(message.Set, len(r.Streams))
	for i, s := range r.Streams {
		set[i] = message.Stream{Name: s.Name, Period: s.PeriodMs / 1e3, LengthBits: s.LengthBits}
	}
	return set
}

// Sweep size caps. Canonicalize refuses a sweep past any of them with a
// typed 400 before any sampling: a large enough sweep would run the
// handler out of memory, a fatal error no middleware can recover.
const (
	maxSweepSamples = 1_000_000
	// maxSweepStreams is the largest set a ring holds.
	maxSweepStreams = ringstate.DefaultMaxRingStreams
	// maxSweepPoints is the grid of 100 points per decade over the
	// paper's three decades.
	maxSweepPoints = 301
)

// Canonicalize validates the request and resolves every default, so
// equivalent sweeps (explicit defaults vs omitted fields, permuted or
// duplicated grid points) share one cache key. The bandwidth grid is
// sorted ascending and deduped — estimating one point twice is pure
// waste, and per-point RNG streams depend only on (seed, bandwidth,
// sample), never on grid position.
func (r SweepRequest) Canonicalize() (SweepRequest, error) {
	out := r
	var err error
	if out.Protocols, err = wire.Protocols(r.Protocols); err != nil {
		return SweepRequest{}, err
	}
	if out.PointsPerDecade <= 0 {
		out.PointsPerDecade = 3
	}
	if out.Streams <= 0 {
		out.Streams = 100
	}
	if out.MeanPeriodMs == 0 {
		out.MeanPeriodMs = 100
	}
	if out.PeriodRatio == 0 {
		out.PeriodRatio = 10
	}
	if out.Samples <= 0 {
		out.Samples = 100
	}
	if out.Seed == 0 {
		out.Seed = 1993
	}
	if out.MeanPeriodMs <= 0 || badFloat(out.MeanPeriodMs) ||
		out.PeriodRatio < 1 || badFloat(out.PeriodRatio) {
		return SweepRequest{}, fmt.Errorf("%w: meanPeriodMs must be positive and periodRatio ≥ 1",
			ErrBadRequest)
	}
	switch {
	case out.Samples > maxSweepSamples:
		return SweepRequest{}, fmt.Errorf("%w: samples %d is past the cap of %d", ErrBadRequest, out.Samples, maxSweepSamples)
	case out.Streams > maxSweepStreams:
		return SweepRequest{}, fmt.Errorf("%w: streams %d is past the cap of %d", ErrBadRequest, out.Streams, maxSweepStreams)
	case len(r.BandwidthsMbps) == 0 && out.PointsPerDecade > (maxSweepPoints-1)/3:
		return SweepRequest{}, fmt.Errorf("%w: pointsPerDecade %d derives a grid past the cap of %d points",
			ErrBadRequest, out.PointsPerDecade, maxSweepPoints)
	}
	out.MeanPeriodMs = canonFloat(out.MeanPeriodMs)
	out.PeriodRatio = canonFloat(out.PeriodRatio)
	if len(r.BandwidthsMbps) == 0 {
		grid := paperBandwidthsMbps(out.PointsPerDecade)
		out.BandwidthsMbps = grid
	} else {
		bws := make([]float64, 0, len(r.BandwidthsMbps))
		for _, bw := range r.BandwidthsMbps {
			if bw <= 0 || badFloat(bw) {
				return SweepRequest{}, fmt.Errorf("%w: bandwidthsMbps must be positive and finite, got %v",
					ErrBadRequest, bw)
			}
			bws = append(bws, canonFloat(bw))
		}
		sort.Float64s(bws)
		deduped := bws[:1]
		for _, bw := range bws[1:] {
			if bw != deduped[len(deduped)-1] {
				deduped = append(deduped, bw)
			}
		}
		if len(deduped) > maxSweepPoints {
			return SweepRequest{}, fmt.Errorf("%w: bandwidthsMbps lists %d points, past the cap of %d",
				ErrBadRequest, len(deduped), maxSweepPoints)
		}
		out.BandwidthsMbps = deduped
	}
	return out, nil
}

// canonExperimentIDs validates and orders an experiment ID list; empty
// selects every registered experiment.
func canonExperimentIDs(in []string) ([]expt.Experiment, error) {
	if len(in) == 0 {
		return expt.All(), nil
	}
	seen := map[string]bool{}
	var out []expt.Experiment
	for _, id := range in {
		id = strings.ToUpper(strings.TrimSpace(id))
		if seen[id] {
			continue
		}
		seen[id] = true
		e, err := expt.ByID(id)
		if err != nil {
			all := expt.All()
			ids := make([]string, len(all))
			for i, e := range all {
				ids[i] = e.ID
			}
			return nil, fmt.Errorf("%w: %v (valid: %s)", ErrBadRequest, err, strings.Join(ids, ", "))
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ListExperiments returns every registered reproduction experiment in ID
// order.
func ListExperiments() []ExperimentInfo {
	all := expt.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title}
	}
	return out
}

// Analyze answers one analyze request. It canonicalizes the request
// itself, so callers may pass the raw wire form; the response (including
// its CacheKey) is a pure function of the canonical request — the
// property the result cache and the CLI/server byte-comparability tests
// rely on.
func Analyze(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
	canon, err := req.Canonicalize()
	if err != nil {
		return AnalyzeResponse{}, err
	}
	return analyzeCanonical(ctx, canon, canon.CacheKey())
}

// analyzeCanonical runs the analysis for an already-canonical request.
func analyzeCanonical(ctx context.Context, req AnalyzeRequest, key string) (AnalyzeResponse, error) {
	set := req.messageSet()
	bw := ring.Mbps(req.BandwidthMbps)
	var fm *faults.Model
	if req.FaultModel != "" {
		m, err := faults.ParseModel(req.FaultModel)
		if err != nil {
			return AnalyzeResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		fm = &m
	}
	resp := AnalyzeResponse{
		CacheKey:      key,
		BandwidthMbps: req.BandwidthMbps,
		FaultModel:    req.FaultModel,
	}
	for _, proto := range req.Protocols {
		if err := ctx.Err(); err != nil {
			return AnalyzeResponse{}, err
		}
		sp := trace.StartLeaf(ctx, "analyze.protocol")
		sp.SetAttr("protocol", proto)
		var v Verdict
		var err error
		if proto == ProtocolTTP {
			v, err = analyzeTTP(bw, set, fm, req.Detail, req.PayloadScales)
		} else {
			v, err = analyzePDP(proto, bw, set, fm, req.Detail, req.PayloadScales)
		}
		if errors.Is(err, rma.ErrBadTask) {
			// Canonicalize accepted every input, so a task the kernel
			// refuses is a cost that overflowed (+Inf on a near-zero
			// bandwidth): the request's magnitudes, not the server, are
			// at fault.
			err = fmt.Errorf("%w: analysis out of range: %v", ErrBadRequest, err)
		}
		if err != nil {
			sp.SetError(err)
			sp.End()
			return AnalyzeResponse{}, err
		}
		sp.SetAttr("schedulable", v.Schedulable)
		sp.End()
		resp.Verdicts = append(resp.Verdicts, v)
	}
	return resp, nil
}

// scaleVerdicts evaluates the canonical payload-scale list through the
// analyzer's pooled batch probe (one workspace for the whole list).
func scaleVerdicts(a core.Analyzer, set message.Set, scales []float64) ([]ScaleVerdict, error) {
	if len(scales) == 0 {
		return nil, nil
	}
	verdicts, err := core.AnalyzeBatch(a, set, scales)
	if err != nil {
		return nil, err
	}
	out := make([]ScaleVerdict, len(scales))
	for i, s := range scales {
		out[i] = ScaleVerdict{Scale: s, Schedulable: verdicts[i]}
	}
	return out, nil
}

// pdpVerdict maps a PDP report to the wire verdict. It is shared by
// /v1/analyze and the per-ring verdicts of /v1/topology/analyze, so a
// 1-node topology reports exactly the values the direct endpoint reports.
func pdpVerdict(proto string, rep core.PDPReport, detail bool) Verdict {
	v := Verdict{
		Protocol:             proto,
		Schedulable:          rep.Schedulable,
		Utilization:          rep.Utilization,
		AugmentedUtilization: rep.AugmentedUtilization,
		Blocking:             rep.Blocking,
		Theta:                rep.Theta,
		FrameTime:            rep.FrameTime,
	}
	if detail {
		for _, s := range rep.Streams {
			v.Streams = append(v.Streams, StreamVerdict{
				Name:            s.Stream.Name,
				PeriodMs:        s.Stream.Period * 1e3,
				Frames:          s.Frames,
				AugmentedLength: s.AugmentedLength,
				ResponseTime:    s.ResponseTime,
				Schedulable:     s.Schedulable,
			})
		}
	}
	return v
}

// ttpVerdict maps a TTP report to the wire verdict (see pdpVerdict).
func ttpVerdict(rep core.TTPReport, detail bool) Verdict {
	v := Verdict{
		Protocol:        ProtocolTTP,
		Schedulable:     rep.Schedulable,
		Utilization:     rep.Utilization,
		TTRT:            rep.TTRT,
		Overhead:        rep.Overhead,
		TotalAllocation: rep.TotalAllocation,
		Capacity:        rep.Capacity,
	}
	if detail {
		for _, s := range rep.Streams {
			v.Streams = append(v.Streams, StreamVerdict{
				Name:              s.Stream.Name,
				PeriodMs:          s.Stream.Period * 1e3,
				Q:                 s.Q,
				AugmentedLength:   s.AugmentedLength,
				Allocation:        s.Allocation,
				WorstCaseResponse: s.WorstCaseResponse,
				Schedulable:       s.Q >= 2,
			})
		}
	}
	return v
}

func analyzePDP(proto string, bw float64, set message.Set, fm *faults.Model, detail bool, scales []float64) (Verdict, error) {
	variant := core.Standard8025
	if proto == ProtocolModifiedPDP {
		variant = core.Modified8025
	}
	p := core.PDPFor(ring.IEEE8025(bw), variant, len(set))
	rep, err := p.Report(set)
	if err != nil {
		return Verdict{}, err
	}
	v := pdpVerdict(proto, rep, detail)
	if v.ScaleVerdicts, err = scaleVerdicts(p, set, scales); err != nil {
		return Verdict{}, err
	}
	if fm != nil {
		budget := p.FaultBudgetFor(fm, set)
		deg, err := p.FaultReport(set, budget)
		if err != nil {
			return Verdict{}, err
		}
		v.Degraded = &DegradedVerdict{
			Schedulable:  deg.Schedulable,
			Availability: budget.Availability,
			Losses:       budget.Losses,
			Recovery:     budget.Recovery,
			Blocking:     deg.Blocking,
		}
	}
	return v, nil
}

func analyzeTTP(bw float64, set message.Set, fm *faults.Model, detail bool, scales []float64) (Verdict, error) {
	t := core.TTPFor(ring.FDDI(bw), len(set))
	rep, err := t.Report(set)
	if err != nil {
		return Verdict{}, err
	}
	v := ttpVerdict(rep, detail)
	if v.ScaleVerdicts, err = scaleVerdicts(t, set, scales); err != nil {
		return Verdict{}, err
	}
	if fm != nil {
		budget := t.FaultBudgetFor(fm, set)
		deg, err := t.FaultReport(set, budget)
		if err != nil {
			return Verdict{}, err
		}
		v.Degraded = &DegradedVerdict{
			Schedulable:     deg.Schedulable,
			Availability:    deg.Availability,
			TotalAllocation: wire.Allocation(deg.TotalAllocation),
			Capacity:        deg.Capacity,
		}
	}
	return v, nil
}

// Sweep answers one sweep request. Like Analyze it canonicalizes the raw
// request; workers bounds the estimator's parallelism (0 = all cores) and
// never affects the result, and obs (may be nil) observes per-sample and
// per-point progress. Cancelling ctx aborts the Monte Carlo workers
// promptly.
func Sweep(ctx context.Context, req SweepRequest, workers int, obs progress.Progress) (SweepResponse, error) {
	canon, err := req.Canonicalize()
	if err != nil {
		return SweepResponse{}, err
	}
	return sweepCanonical(ctx, canon, canon.CacheKey(), workers, obs)
}

func sweepCanonical(ctx context.Context, req SweepRequest, key string, workers int, obs progress.Progress) (SweepResponse, error) {
	est := breakdown.Estimator{
		Generator: message.Generator{
			Streams:     req.Streams,
			MeanPeriod:  req.MeanPeriodMs / 1e3,
			PeriodRatio: req.PeriodRatio,
		},
		Samples:  req.Samples,
		Seed:     req.Seed,
		Workers:  workers,
		Progress: obs,
	}
	bandwidths := make([]float64, len(req.BandwidthsMbps))
	for i, bw := range req.BandwidthsMbps {
		bandwidths[i] = ring.Mbps(bw)
	}
	all, err := est.SweepProtocols(ctx, req.Protocols, req.Streams, bandwidths)
	if errors.Is(err, rma.ErrBadTask) || errors.Is(err, breakdown.ErrNoBracket) {
		// Canonicalize accepted every input, so a task the kernel refuses
		// or a saturation it cannot bracket comes from the request's
		// magnitudes (a bandwidth or period near 1e300), not from the
		// server.
		err = fmt.Errorf("%w: sweep out of range: %v", ErrBadRequest, err)
	}
	if err != nil {
		return SweepResponse{}, err
	}
	resp := SweepResponse{CacheKey: key, Request: req}
	for i, s := range all {
		series := SweepSeries{Protocol: req.Protocols[i], Name: s.Name}
		for _, p := range s.Points {
			series.Points = append(series.Points, SweepPoint{
				BandwidthMbps: p.BandwidthBPS / 1e6,
				Mean:          p.Estimate.Mean,
				CI95:          p.Estimate.CI95,
				P10:           p.Estimate.P10,
				Median:        p.Estimate.Median,
				P90:           p.Estimate.P90,
				Infeasible:    p.Estimate.Infeasible,
			})
		}
		resp.Series = append(resp.Series, series)
	}
	return resp, nil
}

// RunExperiments executes a batch of reproduction experiments; workers
// bounds the parallelism and obs (may be nil) observes lifecycle and
// progress. Results come back in deterministic ID order.
func RunExperiments(ctx context.Context, req ExperimentsRequest, workers int, obs progress.Progress) (ExperimentsResponse, error) {
	exps, err := canonExperimentIDs(req.IDs)
	if err != nil {
		return ExperimentsResponse{}, err
	}
	cfg := expt.Config{
		Samples:         req.Samples,
		Seed:            req.Seed,
		PointsPerDecade: req.PointsPerDecade,
		Quick:           req.Quick,
		Workers:         workers,
	}
	var resp ExperimentsResponse
	for _, o := range expt.RunAll(ctx, cfg, obs, exps) {
		r := ExperimentResult{
			ID:     o.Experiment.ID,
			Title:  o.Experiment.Title,
			Pass:   o.Err == nil && o.Report.Pass,
			Values: o.Report.Values,
			Notes:  o.Report.Notes,
		}
		if o.Err != nil {
			r.Error = o.Err.Error()
		}
		resp.Results = append(resp.Results, r)
	}
	if err := ctx.Err(); err != nil {
		return ExperimentsResponse{}, err
	}
	return resp, nil
}

// paperBandwidthsMbps is the default sweep grid in Mbps.
func paperBandwidthsMbps(pointsPerDecade int) []float64 {
	bws := breakdown.PaperBandwidths(pointsPerDecade)
	out := make([]float64, len(bws))
	for i, bw := range bws {
		out[i] = bw / 1e6
	}
	return out
}
