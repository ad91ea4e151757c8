package rma

import (
	"math"
	"sort"
)

// This file holds the test-only oracles the production kernels are checked
// against: the scheduling-point form of the criterion, and a frozen copy
// of the response-time loop as it stood before the kernels shared one
// fixpoint function. Neither shares code with fixpoint.

// SchedulingPoints returns R_i = { l·P_k | 1 ≤ k ≤ i+1, l = 1..floor(P_i/P_k) }
// for the task at index i of an RM-ordered set: the points at which the
// Lehoczky–Sha–Ding criterion must be evaluated. Points are deduplicated
// and sorted ascending.
func SchedulingPoints(ts TaskSet, i int) []float64 {
	pi := ts[i].Period
	var pts []float64
	for k := 0; k <= i; k++ {
		pk := ts[k].Period
		lmax := int(math.Floor(pi / pk))
		for l := 1; l <= lmax; l++ {
			pts = append(pts, float64(l)*pk)
		}
	}
	sort.Float64s(pts)
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// ExactTest runs the Lehoczky–Sha–Ding criterion with a blocking term
// directly over the scheduling points (eq. (4) of the paper):
//
//	task i schedulable ⟺ ∃ t ∈ R_i : Σ_{j<i} C_j·releases_j(t) + C_i + B ≤ t,
//
// where releases_j(t) counts task j's releases in [0, t). It is the
// reference the response-time kernels must agree with on verdict and
// first failure.
func ExactTest(ts TaskSet, blocking float64) (Result, error) {
	if err := ts.Validate(); err != nil {
		return Result{}, err
	}
	if !validBlocking(blocking) {
		return Result{}, ErrBadBlocking
	}
	res := Result{Schedulable: true, FirstFailure: -1}
	for i := range ts {
		if !taskSchedulableAtPoints(ts, i, blocking) {
			res.Schedulable = false
			res.FirstFailure = i
			break
		}
	}
	return res, nil
}

func taskSchedulableAtPoints(ts TaskSet, i int, blocking float64) bool {
	for _, t := range SchedulingPoints(ts, i) {
		demand := blocking + ts[i].Cost
		for j := 0; j < i; j++ {
			demand += ts[j].Cost * releases(t, ts[j].Period)
		}
		if demand <= t {
			return true
		}
	}
	return false
}

// releases counts the releases of a task with period p in [0, t) for a
// scheduling point t > 0: the least q with float64(q)·p ≥ t, compared on
// the same float products the points are built from. ⌈t/p⌉ can overcount
// by one: at t = float64(3)·p the quotient t/p may round to
// 3.0000000000000004, charging a release at t itself.
func releases(t, p float64) float64 {
	q := math.Ceil(t / p)
	for q > 1 && (q-1)*p >= t {
		q--
	}
	for q*p < t {
		q++
	}
	return q
}

// referenceRTA is the response-time loop ResponseTimeAnalysis ran before
// the kernels shared one fixpoint function, kept verbatim: the production
// results must stay bit-identical to it.
func referenceRTA(ts TaskSet, blocking float64) (Result, error) {
	if err := ts.Validate(); err != nil {
		return Result{}, err
	}
	if !validBlocking(blocking) {
		return Result{}, ErrBadBlocking
	}
	res := Result{
		Schedulable:   true,
		FirstFailure:  -1,
		ResponseTimes: make([]float64, len(ts)),
	}
	for i, t := range ts {
		r := blocking + t.Cost
		for j := 0; j < i; j++ {
			r += ts[j].Cost
		}
		for {
			if r > t.Period {
				res.ResponseTimes[i] = r
				if res.Schedulable {
					res.Schedulable = false
					res.FirstFailure = i
				}
				break
			}
			next := blocking + t.Cost
			for j := 0; j < i; j++ {
				next += ts[j].Cost * math.Ceil(r/ts[j].Period)
			}
			if next <= r {
				res.ResponseTimes[i] = r
				break
			}
			r = next
		}
	}
	return res, nil
}
