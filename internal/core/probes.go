package core

import (
	"math"
	"slices"
	"sync"

	"ringsched/internal/message"
	"ringsched/internal/rma"
)

// The protocol analyzers keep their probe workspaces in per-type pools so
// that sweep worker goroutines recycle a handful of workspaces across
// millions of Monte Carlo samples instead of allocating per sample.
var (
	pdpJobs   = sync.Pool{New: func() any { return new(pdpJob) }}
	ttpJobs   = sync.Pool{New: func() any { return new(ttpJob) }}
	idealJobs = sync.Pool{New: func() any { return new(idealJob) }}
)

var (
	_ BatchAnalyzer = PDP{}
	_ BatchAnalyzer = TTP{}
	_ BatchAnalyzer = IdealRM{}
)

// byPeriod orders streams for slices.SortStableFunc exactly like
// message.Set.SortRM's sort.SliceStable(Period <): both are stable sorts
// under the same strict weak ordering, so they produce the same
// permutation.
func byPeriod(a, b message.Stream) int {
	switch {
	case a.Period < b.Period:
		return -1
	case a.Period > b.Period:
		return 1
	default:
		return 0
	}
}

// scaleError reproduces the error the reference per-call path reports for
// a degenerate scale: validation of the scaled set, first invalid stream
// in input order. It allocates, but only on the error path.
func scaleError(m message.Set, scale float64) error {
	if err := m.Scale(scale).Validate(); err != nil {
		return err
	}
	// Unreachable when called for an invalid scaled payload; fall back to
	// the generic length error rather than reporting success.
	return message.ErrBadLength
}

// --- PDP -------------------------------------------------------------

// pdpJob is the Theorem 4.1 probe: the RM order, blocking term, and the
// C' plant constants are fixed at bind (periods do not change under
// payload scaling); each probe recomputes only the augmented lengths
// C'(scale·bits) and re-runs the workspace's bracketed exact test.
type pdpJob struct {
	c        plant
	orig     message.Set
	streams  []message.Stream
	bits     []float64
	tasks    rma.TaskSet
	ws       rma.Workspace
	blocking float64
}

// NewProbe implements BatchAnalyzer.
func (p PDP) NewProbe(m message.Set) (Probe, func(), error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	j := pdpJobs.Get().(*pdpJob)
	if err := j.bind(p, m); err != nil {
		pdpJobs.Put(j)
		return nil, nil, err
	}
	return j, func() { j.orig = nil; pdpJobs.Put(j) }, nil
}

func (j *pdpJob) bind(p PDP, m message.Set) error {
	j.c = p.plant()
	j.orig = m
	j.blocking = p.Blocking()
	j.streams = append(j.streams[:0], m...)
	slices.SortStableFunc(j.streams, byPeriod)
	j.bits = j.bits[:0]
	j.tasks = j.tasks[:0]
	for _, s := range j.streams {
		j.bits = append(j.bits, s.LengthBits)
		j.tasks = append(j.tasks, rma.Task{Cost: j.c.augmented(s.LengthBits), Period: s.Period})
	}
	return j.ws.Load(j.tasks)
}

// Schedulable implements Probe: bit-identical to
// p.Schedulable(m.Scale(scale)).
func (j *pdpJob) Schedulable(scale float64) (bool, error) {
	ts := j.ws.Tasks()
	for i, b := range j.bits {
		sb := b * scale
		if !(sb > 0) || math.IsInf(sb, 0) {
			return false, scaleError(j.orig, scale)
		}
		ts[i].Cost = j.c.augmented(sb)
	}
	return j.ws.Schedulable(j.blocking)
}

// --- TTP -------------------------------------------------------------

// ttpJob is the Theorem 5.1 probe. TTRT, the rotation capacity, and every
// stream's guaranteed visit count q_i depend only on the periods, so they
// are fixed at bind; a probe is then a single pass accumulating
// Σ h_i(scale) in input order with the reference Report's exact
// arithmetic.
type ttpJob struct {
	t        TTP
	orig     message.Set
	bits     []float64 // input order
	qm1      []float64 // float64(q_i − 1); 0 when q_i < 2
	ovhd     []float64 // float64(q_i − 1)·Fovhd, the framing term of C'_i
	infinite []bool    // q_i < 2: the allocation is +Inf at any load
	bw       float64
	capacity float64 // TTRT − θ
}

// NewProbe implements BatchAnalyzer.
func (t TTP) NewProbe(m message.Set) (Probe, func(), error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	j := ttpJobs.Get().(*ttpJob)
	j.bind(t, m)
	return j, func() { j.orig = nil; ttpJobs.Put(j) }, nil
}

func (j *ttpJob) bind(t TTP, m message.Set) {
	j.t = t
	j.orig = m
	j.bw = t.Net.BandwidthBPS
	ttrt := t.SelectTTRT(m)
	j.capacity = ttrt - t.Overhead()
	fovhd := t.SyncFrame.OvhdTime(j.bw)
	j.bits = j.bits[:0]
	j.qm1 = j.qm1[:0]
	j.ovhd = j.ovhd[:0]
	j.infinite = j.infinite[:0]
	for _, s := range m {
		// Report's term at availability 1. With a zero length the
		// augmented length is exactly the framing term (q−1)·Fovhd.
		q, ovhd, _, _ := TTPStreamTerm(0, s.Period, ttrt, fovhd, 1)
		j.bits = append(j.bits, s.LengthBits)
		j.qm1 = append(j.qm1, float64(q-1))
		j.ovhd = append(j.ovhd, ovhd)
		j.infinite = append(j.infinite, q < 2)
	}
}

// Schedulable implements Probe: bit-identical to
// t.Schedulable(m.Scale(scale)).
func (j *ttpJob) Schedulable(scale float64) (bool, error) {
	var total float64
	for i, b := range j.bits {
		sb := b * scale
		if !(sb > 0) || math.IsInf(sb, 0) {
			return false, scaleError(j.orig, scale)
		}
		var h float64
		if j.infinite[i] {
			h = math.Inf(1)
		} else {
			h = (sb/j.bw + j.ovhd[i]) / j.qm1[i]
		}
		total += h
	}
	return total <= j.capacity, nil
}

// --- Ideal RM --------------------------------------------------------

// idealJob is the zero-overhead baseline probe: costs are the scaled bit
// counts directly, blocking is zero.
type idealJob struct {
	orig  message.Set
	bits  []float64 // RM-sorted order
	tasks rma.TaskSet
	ws    rma.Workspace
}

// NewProbe implements BatchAnalyzer.
func (IdealRM) NewProbe(m message.Set) (Probe, func(), error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	j := idealJobs.Get().(*idealJob)
	if err := j.bind(m); err != nil {
		idealJobs.Put(j)
		return nil, nil, err
	}
	return j, func() { j.orig = nil; idealJobs.Put(j) }, nil
}

func (j *idealJob) bind(m message.Set) error {
	j.orig = m
	j.tasks = j.tasks[:0]
	j.bits = j.bits[:0]
	sorted := m.SortRM()
	for _, s := range sorted {
		j.bits = append(j.bits, s.LengthBits)
		j.tasks = append(j.tasks, rma.Task{Cost: s.LengthBits, Period: s.Period})
	}
	return j.ws.Load(j.tasks)
}

// Schedulable implements Probe: bit-identical to
// IdealRM{}.Schedulable(m.Scale(scale)).
func (j *idealJob) Schedulable(scale float64) (bool, error) {
	ts := j.ws.Tasks()
	for i, b := range j.bits {
		sb := b * scale
		if !(sb > 0) || math.IsInf(sb, 0) {
			return false, scaleError(j.orig, scale)
		}
		ts[i].Cost = sb
	}
	return j.ws.Schedulable(0)
}
