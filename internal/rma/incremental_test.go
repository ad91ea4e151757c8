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

// rmIndex returns a stable insertion index for period p: after every
// resident task with Period ≤ p.
func rmIndex(w *Incremental, p float64) int {
	i := 0
	for i < w.Len() && w.Task(i).Period <= p {
		i++
	}
	return i
}

func TestIncrementalMatchesFullAnalysis(t *testing.T) {
	periods := []float64{0.002, 0.005, 0.005, 0.01, 0.01, 0.01, 0.02, 0.05}
	costs := []float64{50e-6, 120e-6, 256e-6, 400e-6, 900e-6, 2.2e-3}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		blocking := []float64{0, 16e-6, 1.1e-3}[seed%3]
		var w Incremental
		if err := w.Reset(blocking); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || w.Len() == 0: // add
				task := Task{Cost: costs[rng.Intn(len(costs))], Period: periods[rng.Intn(len(periods))]}
				i := rmIndex(&w, task.Period)
				re, err := w.Insert(i, task)
				if err != nil {
					t.Fatalf("seed %d step %d: Insert: %v", seed, step, err)
				}
				if want := w.Len() - i; re != want {
					t.Fatalf("seed %d step %d: Insert reprobed %d, want %d", seed, step, re, want)
				}
			case op < 7: // remove
				i := rng.Intn(w.Len())
				re, err := w.Remove(i)
				if err != nil {
					t.Fatalf("seed %d step %d: Remove: %v", seed, step, err)
				}
				if want := w.Len() - i; re != want {
					t.Fatalf("seed %d step %d: Remove reprobed %d, want %d", seed, step, re, want)
				}
			case op < 9: // modify cost in place
				i := rng.Intn(w.Len())
				task := w.Task(i)
				task.Cost = costs[rng.Intn(len(costs))]
				if _, err := w.Set(i, task); err != nil {
					t.Fatalf("seed %d step %d: Set: %v", seed, step, err)
				}
			default: // rebase blocking
				if _, err := w.Rebase(float64(rng.Intn(3)) * 333e-6); err != nil {
					t.Fatalf("seed %d step %d: Rebase: %v", seed, step, err)
				}
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
		if _, err := w.Insert(w.Len(), task); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]float64(nil), w.ResponseTimes()...)
	re, err := w.Insert(5, Task{Cost: 333e-6, Period: 0.025})
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

func TestIncrementalRejectsBadEdits(t *testing.T) {
	var w Incremental
	if err := w.Reset(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(math.NaN()); err == nil {
		t.Fatal("Reset(NaN) must fail")
	}
	if _, err := w.Insert(1, Task{Cost: 1, Period: 1}); err == nil {
		t.Fatal("Insert out of range must fail")
	}
	if _, err := w.Insert(0, Task{Cost: -1, Period: 1}); err == nil {
		t.Fatal("Insert negative cost must fail")
	}
	if _, err := w.Insert(0, Task{Cost: 1, Period: 0.010}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert(0, Task{Cost: 1, Period: 0.020}); err == nil {
		t.Fatal("Insert violating RM order must fail")
	}
	if _, err := w.Insert(1, Task{Cost: 1, Period: 0.005}); err == nil {
		t.Fatal("Insert violating RM order must fail")
	}
	if _, err := w.Set(0, Task{Cost: 1, Period: math.Inf(1)}); err == nil {
		t.Fatal("Set infinite period must fail")
	}
	if _, err := w.Remove(3); err == nil {
		t.Fatal("Remove out of range must fail")
	}
	if _, err := w.Rebase(-1); err == nil {
		t.Fatal("Rebase(-1) must fail")
	}
}

func TestIncrementalEditAllocs(t *testing.T) {
	// A steady-state add/remove cycle at stable capacity allocates nothing.
	var w Incremental
	if err := w.Reset(1e-4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := w.Insert(w.Len(), Task{Cost: 20e-6, Period: 0.01 * float64(i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	task := Task{Cost: 40e-6, Period: 0.3}
	allocs := testing.AllocsPerRun(100, func() {
		i := rmIndex(&w, task.Period)
		if _, err := w.Insert(i, task); err != nil {
			panic(err)
		}
		if _, err := w.Remove(i); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state edit allocates %v per op, want 0", allocs)
	}
}
