package core

import (
	"errors"
	"fmt"
	"math"

	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/ring"
)

// TTRTRule selects how the Target Token Rotation Time is chosen at ring
// initialization (Section 5.2). The protocol determines TTRT by bidding:
// every station submits a bid and the minimum wins.
type TTRTRule int

const (
	// TTRTSqrtHeuristic is the paper's rule: station i bids √(θ·P_i), so
	// the winning value is √(θ·Pmin) (capped at Pmin/2 to keep the
	// deadline constraint meaningful). For equal periods this choice
	// provably maximizes the breakdown utilization.
	TTRTSqrtHeuristic TTRTRule = iota + 1
	// TTRTHalfMinPeriod uses the loosest admissible value Pmin/2 implied
	// by Johnson's 2·TTRT inter-visit bound.
	TTRTHalfMinPeriod
	// TTRTFixed uses the explicitly configured TTP.FixedTTRT value.
	TTRTFixed
)

// String implements fmt.Stringer.
func (r TTRTRule) String() string {
	switch r {
	case TTRTSqrtHeuristic:
		return "sqrt(theta*Pmin)"
	case TTRTHalfMinPeriod:
		return "Pmin/2"
	case TTRTFixed:
		return "fixed"
	default:
		return fmt.Sprintf("TTRTRule(%d)", int(r))
	}
}

// Errors returned by the TTP analyzer.
var (
	ErrBadTTRTRule      = errors.New("core: unknown TTRT rule")
	ErrBadFixedTTRT     = errors.New("core: fixed TTRT must be positive")
	ErrBadOverrunBudget = errors.New("core: unknown overrun budget")
)

// OverrunBudget selects how much asynchronous overrun the per-rotation
// overhead θ includes.
type OverrunBudget int

const (
	// OverrunSingleFrame is the paper's eq. (11): θ = Θ + F, budgeting
	// one maximum-length asynchronous frame of overrun per rotation.
	OverrunSingleFrame OverrunBudget = iota + 1
	// OverrunPerStation budgets θ = Θ + n·F: every station may overrun
	// by one frame in the same rotation. The paper's single-frame budget
	// is marginally optimistic when every station carries saturated
	// asynchronous traffic — the operational simulator demonstrates a
	// deadline miss at 95 % of the eq.-(11) saturation (see
	// EXPERIMENTS.md, VAL-SIM); this budget restores the guarantee.
	OverrunPerStation
)

// String implements fmt.Stringer.
func (o OverrunBudget) String() string {
	switch o {
	case OverrunSingleFrame:
		return "single-frame"
	case OverrunPerStation:
		return "per-station"
	default:
		return fmt.Sprintf("OverrunBudget(%d)", int(o))
	}
}

// TTP is the schedulability analyzer for the timed token protocol with the
// local synchronous bandwidth allocation scheme (Theorem 5.1). Station i is
// assigned synchronous bandwidth h_i = C_i/(q_i − 1) + Fovhd with
// q_i = floor(P_i/TTRT); the set is guaranteed iff the allocations fit in
// one token rotation: Σ h_i ≤ TTRT − θ.
type TTP struct {
	// Net is the physical ring (typically ring.FDDI(bw)).
	Net ring.Config
	// SyncFrame supplies the per-frame overhead Fovhd added to each
	// synchronous transmission burst. (Synchronous frame *length* is the
	// allocation h_i itself; only the overhead bits matter here.)
	SyncFrame frame.Spec
	// AsyncFrame is the maximum-length asynchronous frame; one such frame
	// can overrun the token (θ = Θ + F_async, eq. (11)).
	AsyncFrame frame.Spec
	// Rule selects the TTRT bidding rule; zero value means
	// TTRTSqrtHeuristic.
	Rule TTRTRule
	// FixedTTRT is the TTRT used when Rule == TTRTFixed, in seconds.
	FixedTTRT float64
	// Overrun selects the asynchronous-overrun budget in θ; zero value
	// means OverrunSingleFrame (the paper's eq. 11).
	Overrun OverrunBudget
}

var _ Analyzer = TTP{}

// NewTTP returns the Theorem 5.1 analyzer on the paper's FDDI plant at the
// given bandwidth, with 64-byte frames and the √(θ·Pmin) TTRT rule.
func NewTTP(bandwidthBPS float64) TTP {
	return TTP{
		Net:        ring.FDDI(bandwidthBPS),
		SyncFrame:  frame.PaperSpec(),
		AsyncFrame: frame.PaperSpec(),
		Rule:       TTRTSqrtHeuristic,
	}
}

// Name implements Analyzer.
func (t TTP) Name() string { return "FDDI" }

// Validate reports the first invalid configuration field, or nil.
func (t TTP) Validate() error {
	if err := t.Net.Validate(); err != nil {
		return err
	}
	if err := t.SyncFrame.Validate(); err != nil {
		return err
	}
	if err := t.AsyncFrame.Validate(); err != nil {
		return err
	}
	switch t.Rule {
	case TTRTSqrtHeuristic, TTRTHalfMinPeriod, 0:
	case TTRTFixed:
		if t.FixedTTRT <= 0 {
			return ErrBadFixedTTRT
		}
	default:
		return ErrBadTTRTRule
	}
	switch t.Overrun {
	case OverrunSingleFrame, OverrunPerStation, 0:
	default:
		return ErrBadOverrunBudget
	}
	return nil
}

// Overhead is θ, the per-rotation protocol overhead: the token circulation
// time Θ plus the configured asynchronous-overrun budget — one
// maximum-length asynchronous frame (eq. (11)) by default, or one per
// station under OverrunPerStation. θ decreases as bandwidth increases.
func (t TTP) Overhead() float64 {
	overrun := t.AsyncFrame.Time(t.Net.BandwidthBPS)
	if t.Overrun == OverrunPerStation {
		overrun *= float64(t.Net.Stations)
	}
	return t.Net.Theta() + overrun
}

// SelectTTRT applies the configured bidding rule to the message set and
// returns the winning TTRT. The result is always capped at Pmin/2 so that
// q_i = floor(P_i/TTRT) ≥ 2 for every stream, as the deadline constraint
// requires.
func (t TTP) SelectTTRT(m message.Set) float64 {
	pmin := m.MinPeriod()
	cap := pmin / 2
	switch t.Rule {
	case TTRTHalfMinPeriod:
		return cap
	case TTRTFixed:
		return math.Min(t.FixedTTRT, cap)
	default: // TTRTSqrtHeuristic and zero value
		return math.Min(math.Sqrt(t.Overhead()*pmin), cap)
	}
}

// TTPStreamReport describes one stream's allocation.
type TTPStreamReport struct {
	// Stream is the analyzed stream.
	Stream message.Stream
	// Q is q_i = floor(P_i/TTRT), the guaranteed token visits per period
	// minus one margin visit.
	Q int
	// AugmentedLength is C'_i = C_i + (q_i−1)·Fovhd.
	AugmentedLength float64
	// Allocation is the synchronous bandwidth h_i = C'_i/(q_i−1).
	Allocation float64
	// WorstCaseResponse is the classic analytic bound on the time from a
	// message's arrival to its completion: q_i·TTRT — the first usable
	// visit may be up to 2·TTRT away (Johnson's bound) and the remaining
	// q_i−2 visits arrive at most TTRT apart. It never exceeds the period
	// (q_i = ⌊P_i/TTRT⌋), which is what makes Theorem 5.1 a deadline
	// guarantee.
	WorstCaseResponse float64
}

// TTPReport is the full Theorem 5.1 analysis outcome.
type TTPReport struct {
	// Schedulable reports whether the set is guaranteed.
	Schedulable bool
	// TTRT is the selected target token rotation time.
	TTRT float64
	// Overhead is θ.
	Overhead float64
	// TotalAllocation is Σ h_i.
	TotalAllocation float64
	// Capacity is TTRT − θ, the time available for synchronous
	// allocations in one rotation (the protocol constraint bound).
	Capacity float64
	// Utilization is the payload utilization U(M).
	Utilization float64
	// Availability is the medium availability A the analysis assumed:
	// 1 for the clean Report, the fault budget's discount for FaultReport
	// (q_i = ⌊A·P_i/TTRT⌋).
	Availability float64
	// Streams holds per-stream allocations in input order.
	Streams []TTPStreamReport
}

// Schedulable implements Analyzer: the Theorem 5.1 criterion
//
//	Σ C_i/(floor(P_i/TTRT) − 1) + n·Fovhd ≤ TTRT − θ.
func (t TTP) Schedulable(m message.Set) (bool, error) {
	rep, err := t.Report(m)
	if err != nil {
		return false, err
	}
	return rep.Schedulable, nil
}

// Report runs the full Theorem 5.1 analysis and returns the allocation
// detail. A set whose TTRT leaves no capacity (TTRT ≤ θ) is reported
// unschedulable rather than as an error.
func (t TTP) Report(m message.Set) (TTPReport, error) {
	return t.report(m, 1)
}

// report is the shared body of Report and FaultReport: the Theorem 5.1
// analysis with the rotation budget discounted by the medium availability
// avail — the guaranteed visits per period shrink to q_i = ⌊avail·P_i/TTRT⌋
// and the worst-case response stretches to q_i·TTRT/avail. With avail = 1
// the arithmetic is exactly the clean analysis.
func (t TTP) report(m message.Set, avail float64) (TTPReport, error) {
	if err := t.Validate(); err != nil {
		return TTPReport{}, err
	}
	if err := m.Validate(); err != nil {
		return TTPReport{}, err
	}
	bw := t.Net.BandwidthBPS
	ttrt := t.SelectTTRT(m)
	rep := TTPReport{
		TTRT:         ttrt,
		Overhead:     t.Overhead(),
		Capacity:     ttrt - t.Overhead(),
		Utilization:  m.Utilization(bw),
		Availability: avail,
		Streams:      make([]TTPStreamReport, len(m)),
	}
	fovhd := t.SyncFrame.OvhdTime(bw)
	for i, s := range m {
		q, cAug, h, wcr := TTPStreamTerm(s.Length(bw), s.Period, ttrt, fovhd, avail)
		rep.Streams[i] = TTPStreamReport{
			Stream:            s,
			Q:                 q,
			AugmentedLength:   cAug,
			Allocation:        h,
			WorstCaseResponse: wcr,
		}
		rep.TotalAllocation += h
	}
	rep.Schedulable = rep.TotalAllocation <= rep.Capacity
	return rep, nil
}

// posInf is the allocation of a stream guaranteed fewer than two visits.
var posInf = math.Inf(1)

// TTPStreamTerm is Theorem 5.1's per-stream term, shared by Report, the
// scaled probe and the ring engine: for a stream of transmission time
// length and period P on a ring with target rotation ttrt, per-visit
// synchronous frame overhead fovhd and medium availability avail, it
// returns the guaranteed visits per period q = ⌊avail·P/TTRT⌋, the
// augmented length C' = length + (q−1)·fovhd, the allocation
// h = C'/(q−1) and the worst-case response q·TTRT/avail.
//
// Fewer than two visits cannot guarantee the deadline: q is then 1 and h
// is +Inf. The Pmin/2 cap makes that unreachable on a clean ring, but a
// deep availability discount (or a degenerate set) can reach it. A visit
// count at or past 2⁶³ saturates at math.MaxInt64: guaranteeing fewer
// visits than the ring gives is still a valid allocation, and every count
// below 2⁶³ is exact.
func TTPStreamTerm(length, period, ttrt, fovhd, avail float64) (q int, cAug, h, wcr float64) {
	// Small enough to inline: the probe's bind uses only q and C'.
	q = 1
	if v := math.Floor(avail * period / ttrt); v >= math.MaxInt64 {
		q = math.MaxInt64
	} else if v >= 2 {
		q = int(v)
	}
	cAug = length + float64(q-1)*fovhd
	h = posInf
	if q >= 2 {
		h = cAug / float64(q-1)
	}
	return q, cAug, h, float64(q) * ttrt / avail
}
