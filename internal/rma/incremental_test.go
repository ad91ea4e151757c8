package rma

import (
	"math"
	"math/rand"
	"testing"
)

// checkAgainstFull asserts the workspace state is bit-identical to the
// frozen reference loop's from-scratch analysis of the same task array.
func checkAgainstFull(t *testing.T, w *Incremental, step int) {
	t.Helper()
	if w.Len() == 0 {
		if !w.Schedulable() || w.FirstFailure() != -1 {
			t.Fatalf("step %d: empty workspace must be vacuously schedulable", step)
		}
		return
	}
	ts := make(TaskSet, w.Len())
	for i := range ts {
		ts[i] = w.Task(i)
	}
	res, err := referenceRTA(ts, w.Blocking())
	if err != nil {
		t.Fatalf("step %d: reference analysis: %v", step, err)
	}
	for i, want := range res.ResponseTimes {
		if got := w.ResponseTime(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d task %d: incremental response %v != full %v", step, i, got, want)
		}
	}
	if got, want := w.Schedulable(), res.Schedulable; got != want {
		t.Fatalf("step %d: incremental schedulable=%v, full=%v", step, got, want)
	}
	wantFF := res.FirstFailure
	if res.Schedulable {
		wantFF = -1
	}
	if got := w.FirstFailure(); got != wantFF {
		t.Fatalf("step %d: incremental firstFailure=%d, full=%d", step, got, wantFF)
	}
}

// rmIndex returns a stable insertion index for period p in the array
// left once index j (none when j < 0) is removed: after every remaining
// task with Period ≤ p.
func rmIndex(w *Incremental, j int, p float64) int {
	k := 0
	for i := 0; i < w.Len(); i++ {
		if i != j && w.Task(i).Period <= p {
			k++
		}
	}
	return k
}

// TestIncrementalMatchesFullAnalysis drives random single-call edits —
// a remove, an insert, a move from j to k, a blocking change, and all of
// them in one call — and checks every state against the reference and
// every re-probe count against the one-pass rule: Len − from, where from
// is the first edited index, or Len when the blocking term moved.
func TestIncrementalMatchesFullAnalysis(t *testing.T) {
	periods := []float64{0.002, 0.005, 0.005, 0.01, 0.01, 0.01, 0.02, 0.05}
	costs := []float64{50e-6, 120e-6, 256e-6, 400e-6, 900e-6, 2.2e-3}
	blockings := []float64{0, 16e-6, 333e-6, 1.1e-3}
	const (
		insert = iota
		remove
		move
		rebase
		all
	)
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Incremental
		if err := w.Reset(blockings[seed%3]); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		for step := 0; step < 80; step++ {
			kind := rng.Intn(5)
			if w.Len() == 0 && (kind == remove || kind == move) {
				kind = insert
			}
			j, k, blocking := -1, -1, w.Blocking()
			var task Task
			if (kind == remove || kind == move || kind == all) && w.Len() > 0 {
				j = rng.Intn(w.Len())
			}
			if kind == insert || kind == move || kind == all {
				task = Task{Cost: costs[rng.Intn(len(costs))], Period: periods[rng.Intn(len(periods))]}
				k = rmIndex(&w, j, task.Period)
			}
			if kind == rebase || kind == all {
				blocking = blockings[rng.Intn(len(blockings))]
			}
			wantLen := w.Len()
			if j >= 0 {
				wantLen--
			}
			if k >= 0 {
				wantLen++
			}
			from := wantLen
			for _, x := range []int{j, k} {
				if x >= 0 {
					from = min(from, x)
				}
			}
			if math.Float64bits(blocking) != math.Float64bits(w.Blocking()) {
				from = 0
			}
			re, err := w.Splice(j, k, task, blocking)
			if err != nil {
				t.Fatalf("seed %d step %d: Splice(%d, %d, %+v, %v): %v", seed, step, j, k, task, blocking, err)
			}
			if w.Len() != wantLen {
				t.Fatalf("seed %d step %d: Len %d after Splice(%d, %d), want %d", seed, step, w.Len(), j, k, wantLen)
			}
			if want := w.Len() - from; re != want {
				t.Fatalf("seed %d step %d: Splice(%d, %d) reprobed %d, want %d", seed, step, j, k, re, want)
			}
			checkAgainstFull(t, &w, step)
		}
	}
}

func TestIncrementalPrefixUntouched(t *testing.T) {
	// Editing at index k must leave response times of tasks < k bitwise
	// untouched — not merely recomputed to equal values.
	var w Incremental
	if err := w.Reset(1e-4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		task := Task{Cost: 200e-6, Period: 0.005 * float64(i+1)}
		if _, err := w.Splice(-1, w.Len(), task, w.Blocking()); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]float64(nil), w.ResponseTimes()...)
	// Move index 6 to index 5 with a new cost: the first edited index is 5.
	re, err := w.Splice(6, 5, Task{Cost: 333e-6, Period: 0.025}, w.Blocking())
	if err != nil {
		t.Fatal(err)
	}
	if re != w.Len()-5 {
		t.Fatalf("reprobed %d, want %d", re, w.Len()-5)
	}
	for i := 0; i < 5; i++ {
		if math.Float64bits(w.ResponseTime(i)) != math.Float64bits(before[i]) {
			t.Fatalf("prefix response %d changed: %v -> %v", i, before[i], w.ResponseTime(i))
		}
	}
	checkAgainstFull(t, &w, 0)
}

// TestIncrementalRejectsBadEdits checks each refusal's typed error and
// that it leaves the tasks, the response times and the blocking term as
// they were.
func TestIncrementalRejectsBadEdits(t *testing.T) {
	var w Incremental
	if err := w.Reset(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(math.NaN()); err != ErrBadBlocking {
		t.Fatalf("Reset(NaN) = %v, want ErrBadBlocking", err)
	}
	for _, p := range []float64{0.005, 0.010, 0.020} {
		if _, err := w.Splice(-1, w.Len(), Task{Cost: 1e-3, Period: p}, 1e-4); err != nil {
			t.Fatal(err)
		}
	}
	good := Task{Cost: 1e-3, Period: 0.010}
	for _, tc := range []struct {
		name     string
		j, k     int
		task     Task
		blocking float64
		want     error
	}{
		{"insert past the end", -1, 4, good, 1e-4, ErrBadTask},
		{"insert past the end of the remaining array", 0, 3, Task{Cost: 1, Period: 0.030}, 1e-4, ErrBadTask},
		{"remove past the end", 3, -1, Task{}, 1e-4, ErrBadTask},
		{"negative cost", -1, 1, Task{Cost: -1, Period: 0.010}, 1e-4, ErrBadTask},
		{"infinite period", 1, 1, Task{Cost: 1, Period: math.Inf(1)}, 1e-4, ErrBadTask},
		{"NaN period", 1, 1, Task{Cost: 1, Period: math.NaN()}, 1e-4, ErrBadTask},
		{"insert before a shorter period", -1, 0, Task{Cost: 1, Period: 0.020}, 1e-4, ErrBadTask},
		{"insert after a longer period", -1, 3, Task{Cost: 1, Period: 0.005}, 1e-4, ErrBadTask},
		{"move out of RM order", 1, 0, Task{Cost: 1, Period: 0.015}, 1e-4, ErrBadTask},
		{"move out of RM order, below", 0, 2, Task{Cost: 1, Period: 0.015}, 1e-4, ErrBadTask},
		{"negative blocking", -1, -1, Task{}, -1, ErrBadBlocking},
		{"infinite blocking with a valid move", 1, 1, good, math.Inf(1), ErrBadBlocking},
		{"NaN blocking with a valid remove", 0, -1, Task{}, math.NaN(), ErrBadBlocking},
	} {
		tasks := make([]Task, w.Len())
		for i := range tasks {
			tasks[i] = w.Task(i)
		}
		resp := append([]float64(nil), w.ResponseTimes()...)
		blocking := w.Blocking()
		if re, err := w.Splice(tc.j, tc.k, tc.task, tc.blocking); err != tc.want || re != 0 {
			t.Fatalf("%s: Splice = (%d, %v), want (0, %v)", tc.name, re, err, tc.want)
		}
		if w.Len() != len(tasks) || math.Float64bits(w.Blocking()) != math.Float64bits(blocking) {
			t.Fatalf("%s: refusal changed the workspace: %d tasks at blocking %v, was %d at %v",
				tc.name, w.Len(), w.Blocking(), len(tasks), blocking)
		}
		for i, task := range tasks {
			if w.Task(i) != task || math.Float64bits(w.ResponseTime(i)) != math.Float64bits(resp[i]) {
				t.Fatalf("%s: refusal changed task %d: %+v (R %v), was %+v (R %v)",
					tc.name, i, w.Task(i), w.ResponseTime(i), task, resp[i])
			}
		}
	}
}

func TestIncrementalEditAllocs(t *testing.T) {
	// A steady-state add/move/remove cycle at stable capacity allocates
	// nothing.
	var w Incremental
	if err := w.Reset(1e-4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := w.Splice(-1, w.Len(), Task{Cost: 20e-6, Period: 0.01 * float64(i+1)}, w.Blocking()); err != nil {
			t.Fatal(err)
		}
	}
	task := Task{Cost: 40e-6, Period: 0.3}
	moved := Task{Cost: 60e-6, Period: 0.05}
	allocs := testing.AllocsPerRun(100, func() {
		i := rmIndex(&w, -1, task.Period)
		if _, err := w.Splice(-1, i, task, w.Blocking()); err != nil {
			panic(err)
		}
		k := rmIndex(&w, i, moved.Period)
		if _, err := w.Splice(i, k, moved, w.Blocking()); err != nil {
			panic(err)
		}
		if _, err := w.Splice(k, -1, Task{}, w.Blocking()); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state edit allocates %v per op, want 0", allocs)
	}
}
