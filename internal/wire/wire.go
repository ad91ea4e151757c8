// Package wire is the verdict vocabulary every route to a Theorem 4.1 or
// 5.1 verdict shares: /v1/analyze, /v1/rings, /v1/topology/analyze,
// ringschedclient and ringadmit's offline replay build and read these
// types, so the routes cannot drift apart in their wire form. It owns:
//
//   - the JSON shapes of a stream and of a verdict;
//   - the /v1/rings requests and responses (rings.go), which
//     ringschedclient and ringadmit read as the server writes them;
//   - the protocol slugs, their canonical order and the canonicalizer;
//   - the resolution of a (faultModel, scenario) pair to a canonical spec;
//   - the canonical stream order, (PeriodMs, LengthBits, Name);
//   - the two renderings the wire imposes on analysis values: the s<N>
//     stream handle, and -1 for an unbounded TTP allocation.
package wire

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ringsched/internal/faults"
)

// Protocol slugs, in canonical order.
const (
	// ProtocolModifiedPDP is the modified IEEE 802.5 implementation
	// (Theorem 4.1, token pass paid once per message).
	ProtocolModifiedPDP = "modified-802.5"
	// ProtocolStandardPDP is the standard IEEE 802.5 implementation
	// (Theorem 4.1, token pass paid per frame).
	ProtocolStandardPDP = "standard-802.5"
	// ProtocolTTP is FDDI under the timed token protocol (Theorem 5.1).
	ProtocolTTP = "fddi"
)

// AllProtocols returns every protocol slug in canonical order.
func AllProtocols() []string {
	return []string{ProtocolModifiedPDP, ProtocolStandardPDP, ProtocolTTP}
}

// protocolRank fixes the canonical position of each slug.
var protocolRank = map[string]int{
	ProtocolModifiedPDP: 0,
	ProtocolStandardPDP: 1,
	ProtocolTTP:         2,
}

// ErrUnknownProtocol reports a slug outside AllProtocols. Its text keeps
// the "service:" prefix the API has always answered with, so every route
// refuses an unknown slug with the same bytes.
var ErrUnknownProtocol = errors.New("service: unknown protocol")

// Protocols canonicalizes a protocol list: each slug lower-cased and
// trimmed, duplicates dropped, the rest in canonical order. Empty input
// selects every protocol.
func Protocols(in []string) ([]string, error) {
	if len(in) == 0 {
		return AllProtocols(), nil
	}
	seen := map[string]bool{}
	var out []string
	for _, p := range in {
		slug := strings.ToLower(strings.TrimSpace(p))
		if _, ok := protocolRank[slug]; !ok {
			return nil, fmt.Errorf("%w: %q (valid: %s)",
				ErrUnknownProtocol, p, strings.Join(AllProtocols(), ", "))
		}
		if !seen[slug] {
			seen[slug] = true
			out = append(out, slug)
		}
	}
	slices.SortFunc(out, func(a, b string) int { return protocolRank[a] - protocolRank[b] })
	return out, nil
}

// errFaultsExclusive reports a request naming both a fault model and a
// scenario.
var errFaultsExclusive = errors.New("faultModel and scenario are mutually exclusive")

// ResolveFaults resolves a (faultModel, scenario) pair to the model it
// names and that model's canonical spec: faults.Model.Spec(), which
// renders equivalent specs (reordered atoms, reformatted numbers,
// scenario names) identically, or "" for neither or an inactive model. A
// parse error is the faults package's own; callers add their prefix.
func ResolveFaults(spec, scenario string) (string, faults.Model, error) {
	var m faults.Model
	switch {
	case spec != "" && scenario != "":
		return "", m, errFaultsExclusive
	case spec != "":
		parsed, err := faults.ParseModel(spec)
		if err != nil {
			return "", m, err
		}
		m = parsed
	case scenario != "":
		sc, err := faults.ScenarioByName(strings.TrimSpace(scenario))
		if err != nil {
			return "", m, err
		}
		m = sc.Model
	}
	if !m.Active() {
		return "", m, nil
	}
	return m.Spec(), m, nil
}

// StreamSpec is the wire form of one synchronous message stream; it
// matches the schedcheck -set file format (periods in milliseconds).
type StreamSpec struct {
	Name       string  `json:"name,omitempty"`
	PeriodMs   float64 `json:"periodMs"`
	LengthBits float64 `json:"lengthBits"`
}

// CompareStreams is the canonical stream order, (PeriodMs, LengthBits,
// Name) ascending, for slices.SortStableFunc. It is a rate-monotonic
// order (dividing by 1e3 is monotone), so a canonical stream set is also
// the RM priority order the PDP analysis needs; a stable sort keeps tied
// streams in arrival order.
func CompareStreams(a, b StreamSpec) int {
	switch {
	case a.PeriodMs < b.PeriodMs:
		return -1
	case a.PeriodMs != b.PeriodMs:
		return 1
	case a.LengthBits < b.LengthBits:
		return -1
	case a.LengthBits != b.LengthBits:
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}

// StreamHandle renders a ring-assigned stream ID on the wire. The handle
// is unique and whitespace-free, so it also names the stream in a ring's
// history script.
func StreamHandle(id uint64) string { return "s" + strconv.FormatUint(id, 10) }

// ParseStreamHandle inverts StreamHandle.
func ParseStreamHandle(s string) (uint64, bool) {
	rest, ok := strings.CutPrefix(s, "s")
	if !ok || rest == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	return id, err == nil
}

// Allocation renders a TTP allocation total on the wire. JSON has no
// +Inf, so an unbounded Σh — some stream's q fell below 2 under the
// availability discount, meaning no finite synchronous allocation exists
// — travels as -1 (the verdict is necessarily unschedulable).
func Allocation(v float64) float64 {
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

// ScaleVerdict is one payload-scale probe's outcome within a Verdict.
type ScaleVerdict struct {
	Scale       float64 `json:"scale"`
	Schedulable bool    `json:"schedulable"`
}

// StreamVerdict is one stream's analysis outcome. PDP verdicts carry
// Frames/ResponseTime; TTP verdicts carry Q/Allocation/WorstCaseResponse.
// All durations are seconds.
type StreamVerdict struct {
	// ID is the stream's handle (StreamHandle), present only in verdicts
	// served from a stateful /v1/rings session; stateless /v1/analyze
	// verdicts omit it (stateless responses stay byte-stable).
	ID                string  `json:"id,omitempty"`
	Name              string  `json:"name,omitempty"`
	PeriodMs          float64 `json:"periodMs"`
	Frames            int     `json:"frames,omitempty"`
	Q                 int     `json:"q,omitempty"`
	AugmentedLength   float64 `json:"augmentedLength"`
	ResponseTime      float64 `json:"responseTime,omitempty"`
	Allocation        float64 `json:"allocation,omitempty"`
	WorstCaseResponse float64 `json:"worstCaseResponse,omitempty"`
	// Schedulable is the per-stream guarantee: ResponseTime ≤ Period for
	// PDP, a finite allocation (q ≥ 2) for TTP.
	Schedulable bool `json:"schedulable"`
}

// DegradedVerdict is the fault-aware analysis outcome. Durations are
// seconds.
type DegradedVerdict struct {
	Schedulable  bool    `json:"schedulable"`
	Availability float64 `json:"availability"`
	// Losses and Recovery echo the PDP budget (Nloss, R).
	Losses   float64 `json:"losses,omitempty"`
	Recovery float64 `json:"recovery,omitempty"`
	// Blocking is the PDP B' = B + Nloss·R.
	Blocking float64 `json:"blocking,omitempty"`
	// TotalAllocation and Capacity are the TTP degraded Σh (Allocation
	// renders an unbounded one) and TTRT − θ.
	TotalAllocation float64 `json:"totalAllocation,omitempty"`
	Capacity        float64 `json:"capacity,omitempty"`
}

// Verdict is one protocol's analysis outcome. PDP verdicts carry
// Blocking/Theta/FrameTime/AugmentedUtilization; TTP verdicts carry
// TTRT/Overhead/TotalAllocation/Capacity. All durations are seconds.
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
	// ScaleVerdicts holds one entry per requested payload scale, in the
	// canonical (ascending, deduped) order.
	ScaleVerdicts []ScaleVerdict `json:"scaleVerdicts,omitempty"`
}
