// Package rma implements fixed-priority rate-monotonic schedulability
// analysis for periodic tasks with deadlines at the end of their periods.
//
// It provides the exact test of Theorem 4.1 of Kamat & Zhao 1993 (the
// Lehoczky–Sha–Ding criterion extended with a blocking term) in its
// equivalent response-time form, and the classical Liu–Layland and
// hyperbolic sufficient bounds as baselines. One demand function holds
// the arithmetic and one fixpoint function iterates it; ResponseTimeAnalysis,
// Workspace and Incremental all run that fixpoint, and Workspace also
// evaluates the demand once at a task's deadline, which settles most tasks
// without iterating. The scheduling-point form of the criterion is kept as
// a test oracle.
//
// Tasks here are abstract (cost, period) pairs: the token-ring analyzers
// map message streams to tasks by computing the protocol-specific augmented
// lengths C'_i and blocking bound B first.
package rma

import (
	"errors"
	"math"
	"slices"
)

// Errors returned by the analyses.
var (
	ErrEmptyTaskSet = errors.New("rma: task set is empty")
	ErrBadTask      = errors.New("rma: task cost and period must be positive (cost may be zero)")
	ErrBadBlocking  = errors.New("rma: blocking must be non-negative and finite")
)

// validBlocking reports whether a blocking term is admissible: finite and
// non-negative, the same constraints Validate puts on costs and periods.
func validBlocking(blocking float64) bool {
	return blocking >= 0 && !math.IsNaN(blocking) && !math.IsInf(blocking, 0)
}

// Task is a periodic task with execution cost and period in seconds and an
// implicit deadline equal to its period.
type Task struct {
	Cost   float64
	Period float64
}

// TaskSet is an ordered collection of tasks. The exact analyses require
// rate-monotonic order (shortest period first); use SortRM to establish it.
type TaskSet []Task

// Validate reports the first invalid task, or nil.
func (ts TaskSet) Validate() error {
	if len(ts) == 0 {
		return ErrEmptyTaskSet
	}
	for _, t := range ts {
		if !validTask(t) {
			return ErrBadTask
		}
	}
	return nil
}

// validTask reports whether a task is admissible: a finite non-negative
// cost and a finite positive period.
func validTask(t Task) bool {
	return t.Period > 0 && t.Cost >= 0 &&
		!math.IsNaN(t.Cost) && !math.IsNaN(t.Period) &&
		!math.IsInf(t.Cost, 0) && !math.IsInf(t.Period, 0)
}

// Utilization is Σ C_i/P_i.
func (ts TaskSet) Utilization() float64 {
	var u float64
	for _, t := range ts {
		u += t.Cost / t.Period
	}
	return u
}

// SortRM returns a copy in rate-monotonic order (shortest period first,
// stable).
func (ts TaskSet) SortRM() TaskSet {
	out := slices.Clone(ts)
	slices.SortStableFunc(out, byPeriod)
	return out
}

// byPeriod is the rate-monotonic order for slices.SortStableFunc: it is
// negative exactly when a.Period < b.Period, the less function of the
// sort.SliceStable it replaced, so the stable sort's permutation is the
// same.
func byPeriod(a, b Task) int {
	switch {
	case a.Period < b.Period:
		return -1
	case a.Period > b.Period:
		return 1
	default:
		return 0
	}
}

// Result is the detailed outcome of an exact schedulability test.
type Result struct {
	// Schedulable reports whether every task meets its deadline.
	Schedulable bool
	// FirstFailure is the index (in the analyzed order) of the first task
	// that misses its deadline, or -1 if schedulable.
	FirstFailure int
	// ResponseTimes holds the worst-case response time of each task when
	// computed by response-time analysis. For tasks at or after a failure
	// the value is the (diverged) bound at which iteration stopped.
	ResponseTimes []float64
}

// ResponseTimeAnalysis runs the exact iterative test: task i is schedulable
// iff the least fixpoint of
//
//	R = blocking + C_i + Σ_{j<i} C_j · ceil(R/P_j)
//
// satisfies R ≤ P_i. The task set must be in RM order; blocking is the
// worst-case priority-inversion term B applied to every task (Theorem 4.1
// uses B = 2·max(F, Θ)). For synchronous periodic tasks with implicit
// deadlines this is equivalent to the Lehoczky–Sha–Ding criterion.
func ResponseTimeAnalysis(ts TaskSet, blocking float64) (Result, error) {
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
	for i := range ts {
		r, _ := fixpoint(ts, i, blocking, 0)
		res.ResponseTimes[i] = r
		if !(r <= ts[i].Period) && res.Schedulable {
			res.Schedulable = false
			res.FirstFailure = i
		}
	}
	return res, nil
}

// fixpoint is the package's one copy of the Theorem 4.1 arithmetic: task
// i's response-time iteration over the RM-ordered ts, started from r — or,
// when r is 0, from the lower bound B + C_i + Σ_{j<i} C_j. It stops at the
// first iterate the demand does not exceed (the least fixpoint at or above
// the start) or at the first iterate past P_i, returns that iterate, and
// counts the demand evaluations it made. Task i meets its deadline iff the
// returned iterate is ≤ P_i. A positive start no larger than the least
// fixpoint reaches the same one: the demand is non-decreasing in R.
func fixpoint(ts TaskSet, i int, blocking, r float64) (float64, int) {
	t, higher := ts[i], ts[:i]
	if r == 0 {
		r = blocking + t.Cost
		for _, h := range higher {
			r += h.Cost
		}
	}
	evals := 0
	for r <= t.Period {
		evals++
		next := demand(higher, blocking+t.Cost, r, false)
		if !(next > r) { // one comparison while the iterate grows
			if math.IsNaN(next) {
				// A zero-cost task whose ⌈r/P⌉ overflowed added 0·Inf;
				// its demand is 0. Wherever a product is finite a zero
				// cost adds exactly +0, so skipping them changes no
				// other input.
				next = demand(higher, blocking+t.Cost, r, true)
			}
			if next <= r {
				// Fixpoint (demand can only step down due to float
				// rounding; the start was a lower bound).
				break
			}
		}
		r = next
	}
	return r, evals
}

// demand is the Theorem 4.1 demand at r: base plus Σ_{h} C_h·⌈r/P_h⌉
// over the higher-priority tasks, summed in order, skipping zero costs
// when skipZero is set. Its callers (fixpoint, and Workspace's deadline
// witness) pass constants, so each inlined call compiles to its own loop
// and the common one tests nothing per term.
func demand(higher TaskSet, base, r float64, skipZero bool) float64 {
	for _, h := range higher {
		if skipZero && h.Cost == 0 {
			continue
		}
		base += h.Cost * math.Ceil(r/h.Period)
	}
	return base
}

// LiuLaylandBound is the classical sufficient utilization bound
// n·(2^{1/n} − 1) for n tasks; it tends to ln 2 ≈ 0.693.
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// LiuLaylandSchedulable is the sufficient (not necessary) test
// U ≤ n·(2^{1/n} − 1).
func LiuLaylandSchedulable(ts TaskSet) bool {
	return ts.Utilization() <= LiuLaylandBound(len(ts))
}

// HyperbolicSchedulable is the Bini–Buttazzo sufficient test
// Π (U_i + 1) ≤ 2, tighter than Liu–Layland.
func HyperbolicSchedulable(ts TaskSet) bool {
	prod := 1.0
	for _, t := range ts {
		prod *= t.Cost/t.Period + 1
	}
	return prod <= 2
}
