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
//     streams. Every edit is one splice — the stream at rate-monotonic
//     index j leaves, the new one enters at index k, either may be
//     absent — and each pass (clean, plus degraded on a faulted ring)
//     is one rma.Incremental.Splice that re-runs the fixpoint once for
//     the indices from the first edited one on, or for all of them when
//     the pass's blocking term moved. The cached response times of the untouched
//     prefix are reused verbatim.
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

	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/wire"
)

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

// validateStream mirrors the service-layer stream checks, the 2⁷² payload
// bound included.
func validateStream(s wire.StreamSpec) error {
	if s.PeriodMs <= 0 || math.IsNaN(s.PeriodMs) || math.IsInf(s.PeriodMs, 0) ||
		s.LengthBits <= 0 || math.IsNaN(s.LengthBits) || math.IsInf(s.LengthBits, 0) {
		return fmt.Errorf("%w: period %v ms, %v bits", ErrBadStream, s.PeriodMs, s.LengthBits)
	}
	if s.LengthBits >= frame.MaxPayloadBits {
		return fmt.Errorf("%w: lengthBits %v is at or past 2^72 bits (2^63 frames of %v bits)",
			ErrBadStream, s.LengthBits, frame.PaperInfoBits)
	}
	return nil
}

// SnapshotStream is one resident stream with its ring-assigned ID.
type SnapshotStream struct {
	ID uint64 `json:"id"`
	wire.StreamSpec
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
// protocol list canonicalized as every route does it, the fault spec
// re-rendered canonically) plus the parsed fault model (nil for a clean
// ring). An unknown protocol is wire's error, so a ring refuses it with
// the bytes /v1/analyze does.
func (c Config) Normalize() (Config, *faults.Model, error) {
	out := c
	var err error
	if out.Protocols, err = wire.Protocols(c.Protocols); err != nil {
		return Config{}, nil, err
	}
	if c.BandwidthMbps <= 0 || math.IsNaN(c.BandwidthMbps) || math.IsInf(c.BandwidthMbps, 0) {
		return Config{}, nil, fmt.Errorf("%w: bandwidthMbps must be positive and finite, got %v",
			ErrBadConfig, c.BandwidthMbps)
	}
	var m faults.Model
	if out.FaultSpec, m, err = wire.ResolveFaults(c.FaultSpec, ""); err != nil {
		return Config{}, nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if out.FaultSpec == "" {
		return out, nil, nil
	}
	return out, &m, nil
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

// Wire renders the delta's per-protocol outcomes as /v1/rings reports
// them: degraded verdicts only on a faulted ring, the edited stream's
// verdict except on a remove, and flipped streams by handle. The result
// shares nothing with the engine's buffers.
func (d *Delta) Wire() []wire.RingProtocolDelta {
	out := make([]wire.RingProtocolDelta, len(d.Protocols))
	for i, pd := range d.Protocols {
		out[i] = wire.RingProtocolDelta{
			Protocol:       pd.Protocol,
			Reprobed:       pd.Reprobed,
			WasSchedulable: pd.WasSchedulable,
			Schedulable:    pd.Schedulable,
		}
		if pd.HasDegraded {
			out[i].DegradedWasSchedulable = boolPtr(pd.DegradedWasSchedulable)
			out[i].DegradedSchedulable = boolPtr(pd.DegradedSchedulable)
		}
		if d.Op != OpRemove {
			out[i].EditedSchedulable = boolPtr(pd.EditedSchedulable)
		}
		for _, f := range pd.Flipped {
			out[i].Flipped = append(out[i].Flipped, wire.RingStreamFlip{
				ID: wire.StreamHandle(f.ID), Name: f.Name, Schedulable: f.Schedulable,
			})
		}
	}
	return out
}

// yes and no back the optional booleans of a wire delta, which are only
// read.
var yes, no = true, false

func boolPtr(v bool) *bool {
	if v {
		return &yes
	}
	return &no
}
