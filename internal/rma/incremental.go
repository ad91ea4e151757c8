package rma

// Incremental is a response-time-analysis workspace for long-lived,
// RM-ordered task sets that are edited one task at a time. It keeps the
// task array and every computed response time resident, so a single-task
// edit at RM index k only re-runs the fixpoint iteration for tasks at or
// below the edited priority (indices ≥ k): a task's response time depends
// exclusively on the blocking term and on the cost/period of tasks at
// higher priority, so the prefix [0, k) is untouched by construction.
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

// orderedInsert reports whether period p keeps the array RM-sorted when
// placed at index i (with the current occupant shifted right for
// inserts — hence the two bounds are checked against i-1 and i).
func (w *Incremental) orderedInsert(i int, p float64) bool {
	if i > 0 && w.tasks[i-1].Period > p {
		return false
	}
	if i < len(w.tasks) && p > w.tasks[i].Period {
		return false
	}
	return true
}

// Insert places t at RM index i (0 ≤ i ≤ Len), shifts lower-priority
// tasks down, and recomputes the response times of every task at or
// below the insertion point. It returns how many tasks were re-probed
// (Len − i after the insert). The period must preserve RM order;
// ErrBadTask is returned for an invalid task or index.
func (w *Incremental) Insert(i int, t Task) (int, error) {
	if i < 0 || i > len(w.tasks) || !validTask(t) || !w.orderedInsert(i, t.Period) {
		return 0, ErrBadTask
	}
	w.tasks = append(w.tasks, Task{})
	copy(w.tasks[i+1:], w.tasks[i:])
	w.tasks[i] = t
	w.resp = append(w.resp, 0)
	copy(w.resp[i+1:], w.resp[i:])
	return w.recomputeFrom(i), nil
}

// Remove deletes the task at RM index i and recomputes the response
// times of every task that was below it. It returns how many tasks were
// re-probed.
func (w *Incremental) Remove(i int) (int, error) {
	if i < 0 || i >= len(w.tasks) {
		return 0, ErrBadTask
	}
	copy(w.tasks[i:], w.tasks[i+1:])
	w.tasks = w.tasks[:len(w.tasks)-1]
	copy(w.resp[i:], w.resp[i+1:])
	w.resp = w.resp[:len(w.resp)-1]
	return w.recomputeFrom(i), nil
}

// Set replaces the task at RM index i in place (the new period must keep
// the array RM-sorted at the same index) and recomputes from i.
func (w *Incremental) Set(i int, t Task) (int, error) {
	if i < 0 || i >= len(w.tasks) || !validTask(t) {
		return 0, ErrBadTask
	}
	if i > 0 && w.tasks[i-1].Period > t.Period {
		return 0, ErrBadTask
	}
	if i+1 < len(w.tasks) && t.Period > w.tasks[i+1].Period {
		return 0, ErrBadTask
	}
	w.tasks[i] = t
	return w.recomputeFrom(i), nil
}

// Rebase installs a new blocking term and recomputes every response
// time: blocking enters every task's fixpoint, so no prefix survives a
// change to it. The degraded-mode PDP engine rebases on every edit
// (its recovery-augmented blocking B' depends on the whole set).
func (w *Incremental) Rebase(blocking float64) (int, error) {
	if !validBlocking(blocking) {
		return 0, ErrBadBlocking
	}
	w.blocking = blocking
	return w.recomputeFrom(0), nil
}

// RecomputeAll re-runs the analysis for every resident task.
func (w *Incremental) RecomputeAll() int { return w.recomputeFrom(0) }

// recomputeFrom re-runs the response-time fixpoint for tasks [k, Len).
func (w *Incremental) recomputeFrom(k int) int {
	for i := k; i < len(w.tasks); i++ {
		w.resp[i], _ = fixpoint(w.tasks, i, w.blocking, 0)
	}
	return len(w.tasks) - k
}
