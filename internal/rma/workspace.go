package rma

import "slices"

// Workspace evaluates the exact schedulability test repeatedly over one
// task set without per-call allocation. It is the hot-path kernel behind
// the breakdown saturation search and the protocol analyzers' batched
// probes: Load once, then mutate costs (Tasks, ScaleCosts) and re-test as
// often as needed.
//
// A Workspace caches the rate-monotonic order of the loaded periods.
// Schedulable also keeps a bracket: the last passing probe (lo) with each
// task's converged response time, and the last failing probe (hi) with its
// failing task and the tasks known to pass there. A probe whose costs
// dominate, or are dominated by, a bracket end inherits its facts exactly
// (see Schedulable); every task that is still undecided runs the package's
// one response-time fixpoint, and the differential property suite asserts
// verdicts bit-identical to test-only reference implementations. The zero
// value is ready to use; a Workspace must not be shared between
// goroutines.
type Workspace struct {
	tasks TaskSet   // RM-sorted working copy; costs mutable via Tasks
	base  []float64 // costs as loaded, for ScaleCosts

	lo  probeLo
	hi  probeHi
	cur []float64 // this probe's per-task response times, becoming lo.resp on a pass

	counters Counters
}

// probeLo is the last probe Schedulable found schedulable.
type probeLo struct {
	ok       bool
	blocking float64
	cost     []float64
	// resp[i] is a lower bound on the least time at which task i's demand
	// at cost fits — its converged response time when it was evaluated
	// there; 0 when unknown.
	resp []float64
}

// probeHi is the last probe Schedulable found unschedulable.
type probeHi struct {
	ok       bool
	blocking float64
	cost     []float64
	fail     int    // a task that misses its deadline at cost
	pass     []bool // tasks known to meet their deadline at cost
}

// Counters is the workspace's cumulative probe telemetry since the last
// Load — plain integers incremented on the hot path, so reading them costs
// nothing and recording them cannot allocate. Saturation-search spans and
// benchmarks use them to attribute time: a healthy search settles most
// probes by dominance and most remaining tasks from the bracket.
type Counters struct {
	// Schedulable counts verdict-only probes answered.
	Schedulable int
	// DominancePasses counts Schedulable probes settled schedulable with
	// nothing evaluated: no cost above the last passing probe's.
	DominancePasses int
	// DominanceFails counts Schedulable probes settled unschedulable with
	// nothing evaluated: no cost below the last failing probe's, up to its
	// failing task.
	DominanceFails int
	// TaskEvals counts per-task response-time iterations Schedulable ran.
	TaskEvals int
	// Iterations counts the demand evaluations of those iterations.
	Iterations int
	// KnownSkips counts tasks Schedulable settled schedulable without
	// evaluation because they passed at the last failing probe and none
	// of their costs grew since.
	KnownSkips int
	// WarmStarts counts task iterations Schedulable started from the
	// task's response time at the last passing probe.
	WarmStarts int
}

// Counters returns the probe telemetry accumulated since Load.
func (w *Workspace) Counters() Counters { return w.counters }

// Load binds the workspace to a task set: validates it and establishes
// rate-monotonic order (stable, identical to TaskSet.SortRM). Subsequent
// probes are allocation-free. Load may allocate only to grow the reusable
// buffers, so reloading sets of similar size is cheap.
func (w *Workspace) Load(ts TaskSet) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	w.tasks = append(w.tasks[:0], ts...)
	slices.SortStableFunc(w.tasks, func(a, b Task) int {
		switch {
		case a.Period < b.Period:
			return -1
		case a.Period > b.Period:
			return 1
		default:
			return 0
		}
	})
	w.base = w.base[:0]
	for _, t := range w.tasks {
		w.base = append(w.base, t.Cost)
	}
	n := len(w.tasks)
	w.lo = probeLo{cost: grow(w.lo.cost, n), resp: grow(w.lo.resp, n)}
	w.hi = probeHi{cost: grow(w.hi.cost, n), pass: grow(w.hi.pass, n)}
	w.cur = grow(w.cur, n)
	w.counters = Counters{}
	return nil
}

// grow returns a slice of length n reusing buf's capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Tasks returns the workspace's RM-sorted working copy. Callers may mutate
// Cost fields between probes (the incremental mode used by the protocol
// analyzers' batched probes); mutating Period fields breaks the cached
// rate-monotonic order and is not supported — Load a new set instead.
func (w *Workspace) Tasks() TaskSet { return w.tasks }

// ScaleCosts sets every working cost to loadedCost·factor — the rma-level
// incremental rescale used when only a common scale factor changes between
// probes. The multiplication is exactly the one the reference path applies
// to a pre-scaled task set, so results stay bit-identical.
func (w *Workspace) ScaleCosts(factor float64) {
	for i := range w.tasks {
		w.tasks[i].Cost = w.base[i] * factor
	}
}

// validate re-checks the working tasks (costs are mutated between probes)
// and the blocking term, in ResponseTimeAnalysis's validation order and
// with its errors.
func (w *Workspace) validate(blocking float64) error {
	if err := w.tasks.Validate(); err != nil {
		return err
	}
	if !validBlocking(blocking) {
		return ErrBadBlocking
	}
	return nil
}

// Schedulable reports the verdict of the exact test for the current costs
// with zero allocations. It is the saturation search's probe, and it
// answers from the bracket of earlier probes wherever that is exact.
//
// Task i's demand D_i(t) = B + c_i + Σ_{j<i} c_j·⌈t/P_j⌉, summed in the
// reference order, is non-decreasing in B and in every c_j under
// round-to-nearest, and the ceilings depend only on t and the fixed
// periods. Task i passes iff D_i(t) ≤ t for some t ∈ (0, P_i], and the
// response-time iteration started at any positive value no larger than
// the least such t stops on exactly that t. So, with equal blocking:
//
//  1. costs ≤ lo's everywhere: the set passes, nothing evaluated;
//  2. costs ≥ hi's on tasks 0..f, f hi's failing task: the set fails,
//     nothing evaluated;
//  3. costs ≤ hi's on tasks 0..i and task i passed at hi: task i passes;
//  4. costs ≥ lo's on tasks 0..i: task i's iteration starts at its
//     response time at lo, which is no larger than its least fitting t.
//
// None of these needs the costs to be monotone in any scale factor: a
// probe that compares neither way with a bracket end just loses that
// inference. The rest is the response-time fixpoint, hi's failing task
// first, stopping at the first failure.
func (w *Workspace) Schedulable(blocking float64) (bool, error) {
	if err := w.validate(blocking); err != nil {
		return false, err
	}
	w.counters.Schedulable++
	loLE, loGE, hiLE := 0, 0, 0
	if w.lo.ok && w.lo.blocking == blocking {
		loLE, loGE = w.dominance(w.lo.cost)
		if loLE == len(w.tasks) {
			w.counters.DominancePasses++
			return true, nil
		}
	}
	first := -1
	if w.hi.ok {
		first = w.hi.fail
		if w.hi.blocking == blocking {
			var hiGE int
			hiLE, hiGE = w.dominance(w.hi.cost)
			if hiGE > first {
				w.counters.DominanceFails++
				return false, nil
			}
		}
	}

	if first >= 0 && !w.settle(first, blocking, loGE, hiLE) {
		w.failAt(first, first, blocking, hiLE)
		return false, nil
	}
	for i := range w.tasks {
		if i != first && !w.settle(i, blocking, loGE, hiLE) {
			w.failAt(i, first, blocking, hiLE)
			return false, nil
		}
	}
	w.lo.ok = true
	w.lo.blocking = blocking
	for i, t := range w.tasks {
		w.lo.cost[i] = t.Cost
	}
	w.lo.resp, w.cur = w.cur, w.lo.resp
	return true, nil
}

// dominance compares the working costs with a bracket end's: le and ge are
// the lengths of the longest prefixes on which every cost is ≤ (le) or ≥
// (ge) the stored one.
func (w *Workspace) dominance(ref []float64) (le, ge int) {
	n := len(w.tasks)
	le, ge = n, n
	for i, t := range w.tasks {
		if t.Cost > ref[i] && le == n {
			le = i
		}
		if t.Cost < ref[i] && ge == n {
			ge = i
		}
		if le < n && ge < n {
			break
		}
	}
	return le, ge
}

// settle decides task i for Schedulable and records its response time in
// cur: known from hi (inference 3), or by the response-time fixpoint,
// warm-started from lo when the costs allow (inference 4). loGE and hiLE
// are the dominance prefixes against lo and hi.
func (w *Workspace) settle(i int, blocking float64, loGE, hiLE int) bool {
	// The start must be positive: at t = 0 every ceiling vanishes, so the
	// iteration could stop below the least fitting time.
	warm := i < loGE && w.lo.resp[i] > 0
	if i < hiLE && w.hi.pass[i] {
		w.counters.KnownSkips++
		// This probe's response time stays unknown; lo's still bounds it
		// from below when the costs dominate lo's.
		w.cur[i] = 0
		if warm {
			w.cur[i] = w.lo.resp[i]
		}
		return true
	}
	w.counters.TaskEvals++
	var start float64
	if warm {
		w.counters.WarmStarts++
		start = w.lo.resp[i]
	}
	r, evals := fixpoint(w.tasks, i, blocking, start)
	w.counters.Iterations += evals
	w.cur[i] = r
	return r <= w.tasks[i].Period
}

// failAt makes the current probe the new hi after task f missed its
// deadline. The tasks settled before f passed; first (hi's old failing
// task, settled first when ≥ 0) passed too unless it is f; the rest keep
// the old hi's knowledge where inference 3 carries it over.
func (w *Workspace) failAt(f, first int, blocking float64, hiLE int) {
	for i, t := range w.tasks {
		w.hi.cost[i] = t.Cost
		switch {
		case i == f:
			w.hi.pass[i] = false
		case i == first || (f != first && i < f):
			w.hi.pass[i] = true
		default:
			w.hi.pass[i] = w.hi.pass[i] && i < hiLE
		}
	}
	w.hi.ok = true
	w.hi.blocking = blocking
	w.hi.fail = f
}
