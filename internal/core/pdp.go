package core

import (
	"errors"
	"fmt"
	"math"

	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/rma"
)

// Variant selects which implementation of the priority driven protocol is
// analyzed (Section 4.2 of the paper).
type Variant int

const (
	// Standard8025 is the implementation on the unmodified IEEE 802.5
	// protocol: the token holding timer admits one frame per token
	// capture, so the token-circulation overhead (Θ/2 on average) is paid
	// for every transmitted frame.
	Standard8025 Variant = iota + 1
	// Modified8025 is the paper's more efficient variant: after a frame,
	// the holder keeps transmitting while it is still the highest-priority
	// active station, so the token-circulation overhead is paid once per
	// message.
	Modified8025
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Standard8025:
		return "IEEE 802.5"
	case Modified8025:
		return "Modified 802.5"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ErrBadVariant reports an unknown PDP variant.
var ErrBadVariant = errors.New("core: unknown PDP variant")

// PDP is the schedulability analyzer for the priority driven protocol
// implementing rate-monotonic scheduling (Theorem 4.1). Messages are split
// into frames (Frame spec); priorities are assigned rate-monotonically; the
// token holding timer admits one frame per capture.
type PDP struct {
	// Net is the physical ring (typically ring.IEEE8025(bw)).
	Net ring.Config
	// Frame is the frame format shared by synchronous and asynchronous
	// traffic (Section 4.2 assumes equal lengths).
	Frame frame.Spec
	// Variant selects the standard or modified implementation.
	Variant Variant
}

var _ Analyzer = PDP{}

// NewStandardPDP returns the Theorem 4.1 analyzer for the unmodified IEEE
// 802.5 implementation on the paper's 802.5 plant at the given bandwidth.
func NewStandardPDP(bandwidthBPS float64) PDP {
	return PDPFor(ring.IEEE8025(bandwidthBPS), Standard8025, 0)
}

// NewModifiedPDP returns the Theorem 4.1 analyzer for the modified IEEE
// 802.5 implementation on the paper's 802.5 plant at the given bandwidth.
func NewModifiedPDP(bandwidthBPS float64) PDP {
	return PDPFor(ring.IEEE8025(bandwidthBPS), Modified8025, 0)
}

// PDPFor returns the Theorem 4.1 analyzer of variant v for a set of n
// streams on net, grown by the plant rule (Stations), with the paper's
// frame format.
func PDPFor(net ring.Config, v Variant, n int) PDP {
	return PDP{Net: net.WithStations(Stations(net.Stations, n)), Frame: frame.PaperSpec(), Variant: v}
}

// Name implements Analyzer.
func (p PDP) Name() string { return p.Variant.String() }

// Validate reports the first invalid configuration field, or nil.
func (p PDP) Validate() error {
	if err := p.Net.Validate(); err != nil {
		return err
	}
	if err := p.Frame.Validate(); err != nil {
		return err
	}
	if p.Variant != Standard8025 && p.Variant != Modified8025 {
		return ErrBadVariant
	}
	return nil
}

// Blocking is the Lemma 4.1 bound B = 2·max(F, Θ) on the total priority
// inversion a message can suffer from lower-priority traffic during its
// active interval.
func (p PDP) Blocking() float64 {
	return 2 * math.Max(p.Frame.Time(p.Net.BandwidthBPS), p.Net.Theta())
}

// AugmentedLength is C'_i: the worst-case medium time to transmit one
// message of the stream including framing, priority-arbitration and
// token-circulation overheads (Section 4.3).
func (p PDP) AugmentedLength(s message.Stream) float64 {
	return p.plant().augmented(s.LengthBits)
}

// plant holds the bandwidth-derived constants of the C' formula. Deriving
// them once and reusing them for every stream gives the same bits as
// deriving them per stream, so every caller of augmented — AugmentedLength,
// Tasks, the report and the batched probes — agrees bit-for-bit.
type plant struct {
	frame      frame.Spec
	standard   bool
	bw         float64
	theta      float64 // Θ
	f          float64 // F, the time of one full frame
	info, ovhd float64 // the information and overhead parts of F
}

// plant derives the C' constants of the analyzer's ring and frame format.
func (p PDP) plant() plant {
	bw := p.Net.BandwidthBPS
	return plant{
		frame:    p.Frame,
		standard: p.Variant == Standard8025,
		bw:       bw,
		theta:    p.Net.Theta(),
		f:        p.Frame.Time(bw),
		info:     p.Frame.InfoTime(bw),
		ovhd:     p.Frame.OvhdTime(bw),
	}
}

// augmented computes C' for a payload of the given size in bits. The
// batched probes call it with pre-scaled bit counts, which is exactly
// what AugmentedLength sees on a Scale()d stream, keeping both paths
// bit-identical.
func (c plant) augmented(lengthBits float64) float64 {
	l, k := c.frame.Split(lengthBits)
	lf, kf := float64(l), float64(k)

	// Token-circulation overhead: Θ/2 on average, per frame for the
	// standard protocol, once per message for the modified one.
	var tokenOverhead float64
	if c.standard {
		tokenOverhead = kf * c.theta / 2
	} else {
		tokenOverhead = c.theta / 2
	}

	if c.f <= c.theta {
		// The header of each frame returns only after Θ; the medium is
		// occupied for Θ per frame regardless of frame size.
		return kf*c.theta + tokenOverhead
	}

	// F > Θ: each of the L_i full frames occupies the medium for F. A
	// short last frame (K_i = L_i + 1) occupies the greater of its own
	// transmission time and Θ, because the holder must wait for its header
	// to return before arbitration can proceed.
	ct := lengthBits / c.bw
	lastFrame := math.Max(ct-lf*c.info+c.ovhd, c.theta)
	return lf*c.f + tokenOverhead + (kf-lf)*lastFrame
}

// Tasks maps the message set, in rate-monotonic order, to the abstract
// periodic tasks (C'_i, P_i) analyzed by Theorem 4.1.
func (p PDP) Tasks(m message.Set) rma.TaskSet {
	return p.tasks(m.SortRM())
}

// tasks maps a set already in rate-monotonic order to its tasks.
func (p PDP) tasks(sorted message.Set) rma.TaskSet {
	ts := make(rma.TaskSet, len(sorted))
	c := p.plant()
	for i, s := range sorted {
		ts[i] = rma.Task{Cost: c.augmented(s.LengthBits), Period: s.Period}
	}
	return ts
}

// Schedulable implements Analyzer: the Theorem 4.1 criterion, evaluated by
// exact response-time analysis (equivalent to the scheduling-point form).
func (p PDP) Schedulable(m message.Set) (bool, error) {
	res, err := p.analyze(m)
	if err != nil {
		return false, err
	}
	return res.Schedulable, nil
}

// PDPStreamReport describes one stream's analysis outcome.
type PDPStreamReport struct {
	// Stream is the analyzed stream (RM order).
	Stream message.Stream
	// Frames is K_i, the number of frames per message.
	Frames int
	// AugmentedLength is C'_i in seconds.
	AugmentedLength float64
	// ResponseTime is the worst-case time from arrival to completion.
	ResponseTime float64
	// Schedulable reports whether ResponseTime ≤ Period.
	Schedulable bool
}

// PDPReport is the full analysis outcome for a message set.
type PDPReport struct {
	// Variant echoes the analyzed implementation.
	Variant Variant
	// Schedulable reports whether every stream is guaranteed.
	Schedulable bool
	// Blocking is B = 2·max(F, Θ).
	Blocking float64
	// Theta is Θ for the plant.
	Theta float64
	// FrameTime is F for the plant.
	FrameTime float64
	// Utilization is the payload utilization U(M).
	Utilization float64
	// AugmentedUtilization is Σ C'_i/P_i, the utilization including all
	// protocol overheads.
	AugmentedUtilization float64
	// Streams holds per-stream details in rate-monotonic order.
	Streams []PDPStreamReport
}

// Report runs the full Theorem 4.1 analysis and returns per-stream detail.
func (p PDP) Report(m message.Set) (PDPReport, error) {
	return p.reportWith(m, CleanFaultBudget())
}

// reportWith is the shared body of Report and FaultReport: the analysis
// with blocking B' = B + Nloss·R and every augmented length inflated by
// 1/Availability. The clean budget charges B' = B and scale 1 exactly, so
// Report's results are bit-identical to the pre-fault-aware analysis.
func (p PDP) reportWith(m message.Set, b FaultBudget) (PDPReport, error) {
	blocking := p.RecoveryBlocking(b)
	scale := 1 / b.Availability
	sorted, res, err := p.analyzeWith(m, blocking, scale)
	if err != nil {
		return PDPReport{}, err
	}
	rep := PDPReport{
		Variant:     p.Variant,
		Schedulable: res.Schedulable,
		Blocking:    blocking,
		Theta:       p.Net.Theta(),
		FrameTime:   p.Frame.Time(p.Net.BandwidthBPS),
		Utilization: m.Utilization(p.Net.BandwidthBPS),
		Streams:     make([]PDPStreamReport, len(sorted)),
	}
	c := p.plant()
	for i, s := range sorted {
		_, k := p.Frame.Split(s.LengthBits)
		cAug := c.augmented(s.LengthBits) * scale
		rep.AugmentedUtilization += cAug / s.Period
		rep.Streams[i] = PDPStreamReport{
			Stream:          s,
			Frames:          k,
			AugmentedLength: cAug,
			ResponseTime:    res.ResponseTimes[i],
			Schedulable:     res.ResponseTimes[i] <= s.Period,
		}
	}
	return rep, nil
}

func (p PDP) analyze(m message.Set) (rma.Result, error) {
	_, res, err := p.analyzeWith(m, p.Blocking(), 1)
	return res, err
}

// analyzeWith runs the response-time analysis with an explicit blocking
// term and task-cost scale factor (the degraded-mode knobs). It sorts m
// once and returns it in the rate-monotonic order the result indexes.
func (p PDP) analyzeWith(m message.Set, blocking, costScale float64) (message.Set, rma.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, rma.Result{}, err
	}
	if err := m.Validate(); err != nil {
		return nil, rma.Result{}, err
	}
	sorted := m.SortRM()
	ts := p.tasks(sorted)
	if costScale != 1 {
		for i := range ts {
			ts[i].Cost *= costScale
		}
	}
	res, err := rma.ResponseTimeAnalysis(ts, blocking)
	return sorted, res, err
}
