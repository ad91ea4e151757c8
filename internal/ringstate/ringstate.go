// Package ringstate holds versioned, long-lived rings for online
// admission control: create a ring once, then add/remove/modify one
// stream at a time and get the updated schedulability verdict back
// incrementally.
//
// The package is built around one invariant, pinned by the differential
// and fuzz harnesses in this package: after every edit, the retained
// verdicts are bit-identical to a from-scratch analysis of the current
// stream set (the test-only FullVerdicts, which mirrors the /v1/analyze
// computation). The incremental engines achieve this by running the same
// per-stream arithmetic as the analyzers — rma's fixpoint and core's
// Theorem 5.1 term — and re-probing only the streams whose verdict can
// change:
//
//   - PDP (Theorem 4.1): a stream's response time depends only on the
//     blocking term and on strictly higher-priority (shorter-period)
//     streams, so an edit at rate-monotonic index k re-runs the
//     fixpoint for indices ≥ k only (rma.Incremental). The cached
//     response times of the untouched prefix are reused verbatim.
//   - TTP (Theorem 5.1): each stream's allocation h_i is a pure
//     function of (stream, TTRT, availability), so a single edit
//     recomputes one stream's terms in O(1) and re-folds the aggregate
//     Σh_i ≤ TTRT − θ test — unless the edit changes TTRT (a new
//     minimum period) or the fault-budget availability, which
//     invalidates every per-stream term.
//
// Aggregates (utilization, augmented utilization, Σh) are re-folded
// over the cached per-stream values in canonical order on every edit —
// never updated in place with += / -= — because float addition does not
// commute with rounding; re-folding is what keeps them bit-identical to
// the reference.
//
// Store adds optimistic concurrency on top: every ring carries a
// version, every mutation names the version it expects, and a mismatch
// is a typed ConflictError (the /v1/rings 409).
package ringstate

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ringsched/internal/faults"
)

// Protocol slugs, identical to the internal/service wire slugs so the
// serving layer can pass its canonical protocol lists through unchanged.
const (
	ProtocolModifiedPDP = "modified-802.5"
	ProtocolStandardPDP = "standard-802.5"
	ProtocolTTP         = "fddi"
)

// AllProtocols returns every slug in canonical order.
func AllProtocols() []string {
	return []string{ProtocolModifiedPDP, ProtocolStandardPDP, ProtocolTTP}
}

// protocolRank fixes canonical protocol order.
var protocolRank = map[string]int{
	ProtocolModifiedPDP: 0,
	ProtocolStandardPDP: 1,
	ProtocolTTP:         2,
}

// Errors returned by ring and store operations.
var (
	ErrBadConfig      = errors.New("ringstate: bad ring config")
	ErrBadStream      = errors.New("ringstate: stream period and length must be positive and finite")
	ErrRingNotFound   = errors.New("ringstate: ring not found")
	ErrStreamNotFound = errors.New("ringstate: stream not found")
	ErrTooManyRings   = errors.New("ringstate: ring limit reached")
	ErrTooManyStreams = errors.New("ringstate: per-ring stream limit reached")
)

// ConflictError is the optimistic-concurrency failure: the mutation
// named an expected version that no longer matches the ring.
type ConflictError struct {
	// Expected is the version the caller named.
	Expected uint64
	// Current is the ring's actual version at the time of the edit.
	Current uint64
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("ringstate: version conflict: expected %d, ring is at %d", e.Expected, e.Current)
}

// Stream is the wire form of one synchronous message stream, matching
// the /v1/analyze stream spec (periods in milliseconds).
type Stream struct {
	Name       string  `json:"name,omitempty"`
	PeriodMs   float64 `json:"periodMs"`
	LengthBits float64 `json:"lengthBits"`
}

// validate mirrors the service-layer stream checks.
func (s Stream) validate() error {
	if s.PeriodMs <= 0 || math.IsNaN(s.PeriodMs) || math.IsInf(s.PeriodMs, 0) ||
		s.LengthBits <= 0 || math.IsNaN(s.LengthBits) || math.IsInf(s.LengthBits, 0) {
		return fmt.Errorf("%w: period %v ms, %v bits", ErrBadStream, s.PeriodMs, s.LengthBits)
	}
	return nil
}

// canonLess is the canonical stream order shared with the service
// layer's request canonicalization: (PeriodMs, LengthBits, Name)
// ascending. It is a rate-monotonic order (dividing by 1e3 is
// monotone), so the engine's canonical array doubles as the RM priority
// order the PDP analysis needs.
func canonLess(a, b Stream) bool {
	if a.PeriodMs != b.PeriodMs {
		return a.PeriodMs < b.PeriodMs
	}
	if a.LengthBits != b.LengthBits {
		return a.LengthBits < b.LengthBits
	}
	return a.Name < b.Name
}

// SnapshotStream is one resident stream with its ring-assigned ID.
type SnapshotStream struct {
	ID uint64 `json:"id"`
	Stream
}

// Config describes a ring: which protocols to keep verdicts for, the
// bandwidth, and an optional fault-model spec for side-by-side degraded
// verdicts.
type Config struct {
	// Protocols lists protocol slugs; empty means all three.
	Protocols []string `json:"protocols,omitempty"`
	// BandwidthMbps is the network bandwidth in Mbps.
	BandwidthMbps float64 `json:"bandwidthMbps"`
	// FaultSpec is a fault-model spec string ("" = clean ring).
	FaultSpec string `json:"faultModel,omitempty"`
}

// Normalize validates the config and returns its canonical form (the
// protocol list deduped and ordered, the fault spec re-rendered
// canonically) plus the parsed fault model (nil for a clean ring).
func (c Config) Normalize() (Config, *faults.Model, error) {
	out := c
	if len(c.Protocols) == 0 {
		out.Protocols = AllProtocols()
	} else {
		seen := map[string]bool{}
		out.Protocols = nil
		for _, p := range c.Protocols {
			slug := strings.ToLower(strings.TrimSpace(p))
			if _, ok := protocolRank[slug]; !ok {
				return Config{}, nil, fmt.Errorf("%w: unknown protocol %q", ErrBadConfig, p)
			}
			if !seen[slug] {
				seen[slug] = true
				out.Protocols = append(out.Protocols, slug)
			}
		}
		sort.Slice(out.Protocols, func(i, j int) bool {
			return protocolRank[out.Protocols[i]] < protocolRank[out.Protocols[j]]
		})
	}
	if c.BandwidthMbps <= 0 || math.IsNaN(c.BandwidthMbps) || math.IsInf(c.BandwidthMbps, 0) {
		return Config{}, nil, fmt.Errorf("%w: bandwidthMbps must be positive and finite, got %v",
			ErrBadConfig, c.BandwidthMbps)
	}
	var fm *faults.Model
	out.FaultSpec = ""
	if c.FaultSpec != "" {
		m, err := faults.ParseModel(c.FaultSpec)
		if err != nil {
			return Config{}, nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		if m.Active() {
			out.FaultSpec = m.Spec()
			fm = &m
		}
	}
	return out, fm, nil
}

// Verdict is one protocol's analysis outcome for the ring, shaped like
// the /v1/analyze verdict (same JSON tags) with per-stream detail always
// included. All durations are seconds.
type Verdict struct {
	Protocol             string           `json:"protocol"`
	Schedulable          bool             `json:"schedulable"`
	Utilization          float64          `json:"utilization"`
	AugmentedUtilization float64          `json:"augmentedUtilization,omitempty"`
	Blocking             float64          `json:"blocking,omitempty"`
	Theta                float64          `json:"theta,omitempty"`
	FrameTime            float64          `json:"frameTime,omitempty"`
	TTRT                 float64          `json:"ttrt,omitempty"`
	Overhead             float64          `json:"overhead,omitempty"`
	TotalAllocation      float64          `json:"totalAllocation,omitempty"`
	Capacity             float64          `json:"capacity,omitempty"`
	Degraded             *DegradedVerdict `json:"degraded,omitempty"`
	Streams              []StreamVerdict  `json:"streams,omitempty"`
}

// DegradedVerdict is the fault-aware outcome (shape of the /v1/analyze
// degraded verdict).
type DegradedVerdict struct {
	Schedulable     bool    `json:"schedulable"`
	Availability    float64 `json:"availability"`
	Losses          float64 `json:"losses,omitempty"`
	Recovery        float64 `json:"recovery,omitempty"`
	Blocking        float64 `json:"blocking,omitempty"`
	TotalAllocation float64 `json:"totalAllocation,omitempty"`
	Capacity        float64 `json:"capacity,omitempty"`
}

// StreamVerdict is one stream's outcome, shaped like the /v1/analyze
// per-stream verdict plus the ring-assigned stream ID.
type StreamVerdict struct {
	ID                uint64  `json:"id"`
	Name              string  `json:"name,omitempty"`
	PeriodMs          float64 `json:"periodMs"`
	Frames            int     `json:"frames,omitempty"`
	Q                 int     `json:"q,omitempty"`
	AugmentedLength   float64 `json:"augmentedLength"`
	ResponseTime      float64 `json:"responseTime,omitempty"`
	Allocation        float64 `json:"allocation,omitempty"`
	WorstCaseResponse float64 `json:"worstCaseResponse,omitempty"`
	Schedulable       bool    `json:"schedulable"`
}

// Edit op names, as they appear in Delta.Op and the wire.
const (
	OpAdd    = "add"
	OpRemove = "remove"
	OpModify = "modify"
)

// StreamFlip records a stream (other than the edited one) whose
// per-stream clean verdict changed because of an edit.
type StreamFlip struct {
	ID          uint64
	Name        string
	Schedulable bool
}

// ProtocolDelta is one protocol's incremental outcome for a single edit.
type ProtocolDelta struct {
	// Protocol is the slug.
	Protocol string
	// Reprobed counts per-stream analysis recomputations this edit cost
	// (clean plus degraded passes).
	Reprobed int
	// WasSchedulable / Schedulable are the ring-level clean verdict
	// before and after the edit.
	WasSchedulable bool
	Schedulable    bool
	// HasDegraded reports whether degraded fields are meaningful.
	HasDegraded            bool
	DegradedWasSchedulable bool
	DegradedSchedulable    bool
	// EditedSchedulable is the edited/added stream's own clean verdict
	// (meaningless for a remove).
	EditedSchedulable bool
	// Flipped lists other streams whose clean per-stream verdict changed.
	Flipped []StreamFlip
}

// Delta is the incremental outcome of one edit. The engine reuses its
// delta buffers: a Delta (including nested slices) is valid only until
// the next edit — Clone it to retain it.
type Delta struct {
	Op        string
	StreamID  uint64
	Reprobed  int
	Protocols []ProtocolDelta
}

// Clone deep-copies the delta out of the engine's scratch buffers.
func (d *Delta) Clone() *Delta {
	out := *d
	out.Protocols = make([]ProtocolDelta, len(d.Protocols))
	for i, p := range d.Protocols {
		out.Protocols[i] = p
		out.Protocols[i].Flipped = append([]StreamFlip(nil), p.Flipped...)
	}
	return &out
}
