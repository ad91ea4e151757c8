package rma

import (
	"math"
	"slices"
)

// Incremental is a response-time-analysis workspace for long-lived,
// RM-ordered task sets that are edited one splice at a time: a task
// leaves, a task enters, or both, and the blocking term may move. It
// keeps the task array and every computed response time resident, so an
// edit whose first edited RM index is k re-runs the fixpoint iteration
// once for the tasks at or below it (indices ≥ k): a task's response time
// depends exclusively on the blocking term and on the cost/period of
// tasks at higher priority, so the prefix [0, k) is untouched by
// construction.
//
// Every response time comes from the same fixpoint function
// ResponseTimeAnalysis runs, so the retained response times are
// bit-identical to a from-scratch analysis of the current task array at
// every edit. The differential tests in this package and the ring-edit
// harness in internal/ringstate pin that property.
//
// The workspace reuses its buffers across edits: a steady-state
// add/remove cycle allocates nothing. It is not safe for concurrent use.
type Incremental struct {
	tasks    []Task
	resp     []float64
	blocking float64
}

// Reset empties the workspace and installs the blocking term applied to
// every task (B in Theorem 4.1). Buffer capacity is retained.
func (w *Incremental) Reset(blocking float64) error {
	if !validBlocking(blocking) {
		return ErrBadBlocking
	}
	w.tasks = w.tasks[:0]
	w.resp = w.resp[:0]
	w.blocking = blocking
	return nil
}

// Len returns the resident task count.
func (w *Incremental) Len() int { return len(w.tasks) }

// Blocking returns the blocking term the workspace currently applies.
func (w *Incremental) Blocking() float64 { return w.blocking }

// Task returns the task at RM index i.
func (w *Incremental) Task(i int) Task { return w.tasks[i] }

// ResponseTime returns the retained worst-case response time of the task
// at RM index i. For an unschedulable task it is the diverged bound at
// which iteration stopped, exactly as ResponseTimeAnalysis reports it.
func (w *Incremental) ResponseTime(i int) float64 { return w.resp[i] }

// ResponseTimes returns the live response-time slice in RM order. The
// slice aliases workspace state: it is valid until the next edit and must
// not be mutated.
func (w *Incremental) ResponseTimes() []float64 { return w.resp }

// TaskSchedulable reports whether the task at RM index i meets its
// deadline: response time ≤ period.
func (w *Incremental) TaskSchedulable(i int) bool {
	return w.resp[i] <= w.tasks[i].Period
}

// Schedulable reports whether every resident task meets its deadline. An
// empty workspace is vacuously schedulable.
func (w *Incremental) Schedulable() bool { return w.FirstFailure() < 0 }

// FirstFailure returns the RM index of the first task that misses its
// deadline, or -1 if every task is schedulable.
func (w *Incremental) FirstFailure() int {
	for i := range w.tasks {
		if !w.TaskSchedulable(i) {
			return i
		}
	}
	return -1
}

// Splice is the one edit. It removes the task at RM index j (nothing
// when j < 0), inserts t at RM index k of the array that remains (nothing
// when k < 0, and t is ignored) and installs blocking. It then runs the
// fixpoint once for every task from the first edited index on, or from
// index 0 when the blocking term's bits changed, since blocking enters
// every task's fixpoint, and returns how many tasks it re-probed. The edit
// is checked whole before any state moves: an index out of range, an
// invalid t or a period that breaks RM order at k is ErrBadTask, an
// invalid blocking term ErrBadBlocking, and either leaves the workspace
// as it was.
func (w *Incremental) Splice(j, k int, t Task, blocking float64) (int, error) {
	if j >= len(w.tasks) || k >= 0 && !w.fits(j, k, t) {
		return 0, ErrBadTask
	}
	if !validBlocking(blocking) {
		return 0, ErrBadBlocking
	}
	from := len(w.tasks)
	if j >= 0 {
		w.tasks = slices.Delete(w.tasks, j, j+1)
		w.resp = slices.Delete(w.resp, j, j+1)
		from = j
	}
	if k >= 0 {
		w.tasks = slices.Insert(w.tasks, k, t)
		w.resp = slices.Insert(w.resp, k, 0)
		from = min(from, k)
	}
	if math.Float64bits(blocking) != math.Float64bits(w.blocking) {
		w.blocking, from = blocking, 0
	}
	for i := from; i < len(w.tasks); i++ {
		w.resp[i], _ = fixpoint(w.tasks, i, w.blocking, 0)
	}
	return len(w.tasks) - from, nil
}

// fits reports whether t is a valid task whose period keeps the array
// RM-sorted at index k once the task at index j (none when j < 0) is
// removed.
func (w *Incremental) fits(j, k int, t Task) bool {
	n, lo, hi := len(w.tasks), k-1, k // lo and hi: t's neighbours, in current indices
	if j >= 0 {
		n--
		if lo >= j {
			lo++
		}
		if hi >= j {
			hi++
		}
	}
	return k <= n && validTask(t) &&
		(k == 0 || w.tasks[lo].Period <= t.Period) &&
		(k == n || t.Period <= w.tasks[hi].Period)
}
