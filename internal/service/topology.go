package service

import (
	"context"
	"fmt"
	"math"
	"strings"

	"ringsched/internal/core"
	"ringsched/internal/frame"
	"ringsched/internal/topology"
	"ringsched/internal/trace"
)

// FlowSpec is the wire form of one end-to-end flow, layered on top of the
// flows already present in the topology spec. Periods are in milliseconds
// to match StreamSpec; an empty Dst means the flow stays on Src's ring.
type FlowSpec struct {
	Name       string  `json:"name,omitempty"`
	Src        string  `json:"src"`
	Dst        string  `json:"dst,omitempty"`
	PeriodMs   float64 `json:"periodMs"`
	LengthBits float64 `json:"lengthBits"`
}

// TopologyRequest asks for per-ring verdicts and end-to-end delay bounds
// over a bridged ring-of-rings topology.
type TopologyRequest struct {
	// Topology is the compact spec grammar of internal/topology:
	// "ring:name=a,proto=8025mod,bw=16e6 + ring:name=b + bridge:a=a,b=b,
	// latency=100us + flow:name=f,src=a,dst=b,period=100ms,bits=4096" —
	// clauses joined by "+".
	Topology string `json:"topology"`
	// Flows optionally adds structured flows beyond the spec's own.
	Flows []FlowSpec `json:"flows,omitempty"`
	// Detail includes per-stream verdicts inside each ring verdict.
	Detail bool `json:"detail,omitempty"`
}

// Canonicalize parses and validates the spec, merges the structured flows,
// and re-renders the canonical spec string so equivalent requests share a
// cache key. All topology errors surface as ErrBadRequest.
func (r TopologyRequest) Canonicalize() (TopologyRequest, error) {
	if strings.TrimSpace(r.Topology) == "" {
		return TopologyRequest{}, fmt.Errorf("%w: topology spec is required", ErrBadRequest)
	}
	topo, err := topology.Parse(r.Topology)
	if err != nil {
		return TopologyRequest{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	for _, f := range r.Flows {
		dst := f.Dst
		if dst == "" {
			dst = f.Src
		}
		topo.Flows = append(topo.Flows, topology.Flow{
			Name:       f.Name,
			Src:        f.Src,
			Dst:        dst,
			Period:     f.PeriodMs / 1e3,
			LengthBits: f.LengthBits,
		})
	}
	topo = topo.Canonicalize()
	if err := topo.Validate(); err != nil {
		return TopologyRequest{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	for _, f := range topo.Flows {
		// The payload bound /v1/analyze applies to a stream's lengthBits.
		if f.LengthBits >= frame.MaxPayloadBits {
			return TopologyRequest{}, fmt.Errorf("%w: flow %q bits %v is at or past 2^72 bits (2^63 frames of %v bits)",
				ErrBadRequest, f.Name, f.LengthBits, frame.PaperInfoBits)
		}
	}
	return TopologyRequest{Topology: topo.Spec(), Detail: r.Detail}, nil
}

// CacheKey returns the canonical hash of the request. Call on the result
// of Canonicalize.
func (r TopologyRequest) CacheKey() string {
	h := newHasher("topology/analyze")
	h.str("spec", r.Topology)
	h.bool("detail", r.Detail)
	return h.sum()
}

// TopologyRingVerdict is one ring's slice of the topology response. The
// embedded Verdict carries exactly the fields /v1/analyze would report for
// the ring's effective message set (local plus transit flows).
type TopologyRingVerdict struct {
	Name        string   `json:"name"`
	Protocol    string   `json:"protocol"`
	Streams     int      `json:"streams"`
	Schedulable bool     `json:"schedulable"`
	Utilization float64  `json:"utilization"`
	Verdict     *Verdict `json:"verdict,omitempty"`
}

// TopologyBridgeVerdict is the network-calculus verdict for one loaded
// bridge direction. BurstBits and DelayBound are omitted when the
// direction is unstable (they would be infinite); Stable carries the
// information instead.
type TopologyBridgeVerdict struct {
	From           string  `json:"from"`
	To             string  `json:"to"`
	RateBPS        float64 `json:"rateBPS"`
	LatencyMs      float64 `json:"latencyMs"`
	Flows          int     `json:"flows"`
	ArrivalRateBPS float64 `json:"arrivalRateBPS"`
	Stable         bool    `json:"stable"`
	BurstBits      float64 `json:"burstBits,omitempty"`
	DelayBoundMs   float64 `json:"delayBoundMs,omitempty"`
	BufferBits     float64 `json:"bufferBits,omitempty"`
	BufferOK       bool    `json:"bufferOK"`
}

// TopologyFlowVerdict is one flow's end-to-end verdict. Delay fields are
// in milliseconds and omitted when the bound is infinite; Bounded carries
// the information instead.
type TopologyFlowVerdict struct {
	Name           string    `json:"name"`
	Src            string    `json:"src"`
	Dst            string    `json:"dst"`
	PeriodMs       float64   `json:"periodMs"`
	LengthBits     float64   `json:"lengthBits"`
	Path           []string  `json:"path"`
	RingDelaysMs   []float64 `json:"ringDelaysMs,omitempty"`
	BridgeDelaysMs []float64 `json:"bridgeDelaysMs,omitempty"`
	BoundMs        float64   `json:"boundMs,omitempty"`
	Bounded        bool      `json:"bounded"`
	Schedulable    bool      `json:"schedulable"`
}

// TopologyResponse is the answer to /v1/topology/analyze.
type TopologyResponse struct {
	// CacheKey is the canonical request hash the response was cached under.
	CacheKey string `json:"cacheKey"`
	// Topology is the canonical spec actually analyzed.
	Topology string `json:"topology"`
	// Schedulable reports every ring schedulable and every flow bounded
	// within its period; Bounded reports every flow's bound finite.
	Schedulable bool                    `json:"schedulable"`
	Bounded     bool                    `json:"bounded"`
	Rings       []TopologyRingVerdict   `json:"rings"`
	Bridges     []TopologyBridgeVerdict `json:"bridges,omitempty"`
	Flows       []TopologyFlowVerdict   `json:"flows"`
}

// protocolSlug maps a topology protocol to the service wire slug.
func protocolSlug(p topology.Protocol) string {
	switch p {
	case topology.Modified8025:
		return ProtocolModifiedPDP
	case topology.Standard8025:
		return ProtocolStandardPDP
	default:
		return ProtocolTTP
	}
}

// sanitizeVerdict zeroes non-finite per-stream fields so the verdict
// always marshals — an unschedulable TTP stream has an infinite
// allocation, and JSON has no encoding for it. The per-stream Schedulable
// flag already carries the outcome.
func sanitizeVerdict(v *Verdict) {
	if v == nil {
		return
	}
	for i := range v.Streams {
		s := &v.Streams[i]
		for _, f := range []*float64{
			&s.AugmentedLength, &s.ResponseTime, &s.Allocation, &s.WorstCaseResponse,
		} {
			if badFloat(*f) {
				*f = 0
			}
		}
	}
}

// AnalyzeTopology answers one topology request: canonicalize, analyze,
// map to the wire response. CLI frontends use it to serve byte-identical
// JSON to the daemon's.
func AnalyzeTopology(ctx context.Context, req TopologyRequest) (TopologyResponse, error) {
	canon, err := req.Canonicalize()
	if err != nil {
		return TopologyResponse{}, err
	}
	return topologyCanonical(ctx, canon, canon.CacheKey())
}

// topologyCanonical computes the response for an already-canonical
// request.
func topologyCanonical(ctx context.Context, req TopologyRequest, key string) (TopologyResponse, error) {
	topo, err := topology.Parse(req.Topology)
	if err != nil {
		return TopologyResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	span := trace.StartLeaf(ctx, "topology.compose")
	rep, err := core.AnalyzeTopology(topo)
	if err != nil {
		span.End()
		return TopologyResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	span.SetAttr("rings", len(rep.Rings))
	span.SetAttr("flows", len(rep.Flows))
	span.SetAttr("schedulable", rep.Schedulable)
	span.End()

	resp := TopologyResponse{
		CacheKey:    key,
		Topology:    req.Topology,
		Schedulable: rep.Schedulable,
		Bounded:     rep.Bounded,
	}
	for _, rv := range rep.Rings {
		out := TopologyRingVerdict{
			Name:        rv.Name,
			Protocol:    protocolSlug(rv.Protocol),
			Streams:     len(rv.Set),
			Schedulable: rv.Schedulable,
			Utilization: canonFloat(rv.Utilization),
		}
		switch {
		case rv.PDP != nil:
			v := pdpVerdict(out.Protocol, *rv.PDP, req.Detail)
			out.Verdict = &v
		case rv.TTP != nil:
			v := ttpVerdict(*rv.TTP, req.Detail)
			out.Verdict = &v
		}
		sanitizeVerdict(out.Verdict)
		resp.Rings = append(resp.Rings, out)
	}
	for _, b := range rep.Bridges {
		out := TopologyBridgeVerdict{
			From:           b.From,
			To:             b.To,
			RateBPS:        b.RateBPS,
			LatencyMs:      b.Latency * 1e3,
			Flows:          b.Flows,
			ArrivalRateBPS: canonFloat(b.ArrivalRateBPS),
			Stable:         b.Stable,
			BufferBits:     b.BufferBits,
			BufferOK:       b.BufferOK,
		}
		if b.Stable && !math.IsInf(b.BurstBits, 1) {
			out.BurstBits = canonFloat(b.BurstBits)
			out.DelayBoundMs = canonFloat(b.DelayBound * 1e3)
		}
		resp.Bridges = append(resp.Bridges, out)
	}
	for _, f := range rep.Flows {
		out := TopologyFlowVerdict{
			Name:        f.Flow.Name,
			Src:         f.Flow.Src,
			Dst:         f.Flow.Dst,
			PeriodMs:    f.Flow.Period * 1e3,
			LengthBits:  f.Flow.LengthBits,
			Path:        f.Path,
			Bounded:     f.Bounded,
			Schedulable: f.Schedulable,
		}
		if f.Bounded {
			out.BoundMs = canonFloat(f.Bound * 1e3)
			for _, d := range f.RingDelays {
				out.RingDelaysMs = append(out.RingDelaysMs, canonFloat(d*1e3))
			}
			for _, d := range f.BridgeDelays {
				out.BridgeDelaysMs = append(out.BridgeDelaysMs, canonFloat(d*1e3))
			}
		}
		resp.Flows = append(resp.Flows, out)
	}
	return resp, nil
}
