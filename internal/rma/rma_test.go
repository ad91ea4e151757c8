package rma

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// liuLayland73 is the classic example: three tasks at the Liu–Layland
// bound boundary.
func liuLayland73() TaskSet {
	return TaskSet{
		{Cost: 40e-3, Period: 100e-3},
		{Cost: 40e-3, Period: 150e-3},
		{Cost: 100e-3, Period: 350e-3},
	}
}

func TestValidate(t *testing.T) {
	if err := (TaskSet{}).Validate(); !errors.Is(err, ErrEmptyTaskSet) {
		t.Errorf("empty: %v, want ErrEmptyTaskSet", err)
	}
	if err := (TaskSet{{Cost: -1, Period: 1}}).Validate(); !errors.Is(err, ErrBadTask) {
		t.Errorf("negative cost: %v, want ErrBadTask", err)
	}
	if err := (TaskSet{{Cost: 1, Period: 0}}).Validate(); !errors.Is(err, ErrBadTask) {
		t.Errorf("zero period: %v, want ErrBadTask", err)
	}
	if err := (TaskSet{{Cost: 0, Period: 1}}).Validate(); err != nil {
		t.Errorf("zero cost should be legal: %v", err)
	}
}

func TestBlockingValidation(t *testing.T) {
	ts := liuLayland73()
	if _, err := ResponseTimeAnalysis(ts, -1); !errors.Is(err, ErrBadBlocking) {
		t.Errorf("negative blocking: %v, want ErrBadBlocking", err)
	}
	if _, err := ExactTest(ts, math.NaN()); !errors.Is(err, ErrBadBlocking) {
		t.Errorf("NaN blocking: %v, want ErrBadBlocking", err)
	}
}

func TestClassicLiuLaylandExample(t *testing.T) {
	// U = 0.4 + 0.267 + 0.286 ≈ 0.953 — far above the LL bound, yet
	// exactly schedulable (a textbook case for the exact test).
	ts := liuLayland73()
	res, err := ResponseTimeAnalysis(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("classic set should be schedulable; responses %v", res.ResponseTimes)
	}
	if LiuLaylandSchedulable(ts) {
		t.Error("LL bound should NOT admit this set (it is only sufficient)")
	}
	// Hand-computed worst-case response times: R1 = 40; R2 = 40+40 = 80;
	// R3 = 100 + 3·40 + 2·40 = 300 ms (fixpoint of the RTA recurrence).
	want := []float64{40e-3, 80e-3, 300e-3}
	for i, w := range want {
		if math.Abs(res.ResponseTimes[i]-w) > 1e-12 {
			t.Errorf("R[%d] = %v, want %v", i, res.ResponseTimes[i], w)
		}
	}
}

func TestUnschedulableDetected(t *testing.T) {
	ts := TaskSet{
		{Cost: 60e-3, Period: 100e-3},
		{Cost: 60e-3, Period: 140e-3},
	}
	res, err := ResponseTimeAnalysis(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("overloaded set reported schedulable")
	}
	if res.FirstFailure != 1 {
		t.Errorf("FirstFailure = %d, want 1", res.FirstFailure)
	}
}

func TestBlockingTipsTheBalance(t *testing.T) {
	// Schedulable without blocking (R2 = 100ms exactly), but 2ms of
	// blocking pushes a second task-1 instance into R2's window.
	ts := TaskSet{
		{Cost: 50e-3, Period: 100e-3},
		{Cost: 50e-3, Period: 150e-3},
	}
	res, err := ResponseTimeAnalysis(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatal("set should be schedulable without blocking")
	}
	res, err = ResponseTimeAnalysis(ts, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("set should NOT be schedulable with 2ms blocking")
	}
}

func TestExactTestMatchesRTA(t *testing.T) {
	// The scheduling-point criterion (eq. 4) and response-time analysis
	// are both exact, hence must agree on random workloads: verdict and
	// first failure.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		ts := make(TaskSet, n)
		for i := range ts {
			period := 10e-3 + rng.Float64()*90e-3
			ts[i] = Task{Period: period, Cost: rng.Float64() * period * 0.4}
		}
		ts = ts.SortRM()
		blocking := rng.Float64() * 5e-3
		rta, err := ResponseTimeAnalysis(ts, blocking)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactTest(ts, blocking)
		if err != nil {
			t.Fatal(err)
		}
		if rta.Schedulable != exact.Schedulable {
			t.Fatalf("trial %d: RTA=%v exact=%v for %+v (B=%v)",
				trial, rta.Schedulable, exact.Schedulable, ts, blocking)
		}
		if rta.FirstFailure != exact.FirstFailure {
			t.Fatalf("trial %d: first failure RTA=%d exact=%d",
				trial, rta.FirstFailure, exact.FirstFailure)
		}
	}
}

// TestExactTestFloatPoints pins scheduling points whose quotient by a
// period rounds above an integer: at t = float64(3)·P₀ below, t/P₀ is
// 3.0000000000000004, so charging ⌈t/P₀⌉ counts a fourth release at t
// itself and rejects a schedulable set. The oracle counts releases on the
// float products the point was built from and agrees with the RTA.
func TestExactTestFloatPoints(t *testing.T) {
	cases := []struct {
		name     string
		ts       TaskSet
		blocking float64
		point    float64 // t = float64(l)·P₀ with t/P₀ above l
		l        float64
		r        float64 // the RTA's response time of the last task
	}{
		{
			// FuzzExactTest seed=164 n=2 blocking=0.022222222222222223 scale=1.5.
			name: "fuzz-164",
			ts: TaskSet{
				{Cost: 0.1661624964311379, Period: 0.23382981277786247},
				{Cost: 0.14303959324145926, Period: 0.714197311513956},
			},
			blocking: 0.022222222222222223,
			point:    0.7014894383335875,
			l:        3,
			r:        0.6637493047570951,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p0 := tc.ts[0].Period
			if tc.l*p0 != tc.point || !(tc.point/p0 > tc.l) {
				t.Fatalf("setup: %v·P₀ = %v, quotient %v: not a rounding-up point",
					tc.l, tc.l*p0, tc.point/p0)
			}
			if got := releases(tc.point, p0); got != tc.l {
				t.Errorf("releases(%v, %v) = %v, want %v", tc.point, p0, got, tc.l)
			}
			rta, err := ResponseTimeAnalysis(tc.ts, tc.blocking)
			if err != nil {
				t.Fatal(err)
			}
			last := len(tc.ts) - 1
			if !rta.Schedulable || rta.ResponseTimes[last] != tc.r {
				t.Fatalf("RTA schedulable=%v R=%v, want schedulable with R=%v",
					rta.Schedulable, rta.ResponseTimes[last], tc.r)
			}
			exact, err := ExactTest(tc.ts, tc.blocking)
			if err != nil {
				t.Fatal(err)
			}
			if !exact.Schedulable || exact.FirstFailure != -1 {
				t.Fatalf("ExactTest = (%v, %d), want schedulable", exact.Schedulable, exact.FirstFailure)
			}
		})
	}
}

func TestSchedulingPoints(t *testing.T) {
	ts := TaskSet{
		{Cost: 1, Period: 10},
		{Cost: 1, Period: 25},
	}
	got := SchedulingPoints(ts, 1)
	want := []float64{10, 20, 25}
	if len(got) != len(want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("points = %v, want %v", got, want)
		}
	}
}

func TestSchedulingPointsDeduplicated(t *testing.T) {
	ts := TaskSet{
		{Cost: 1, Period: 10},
		{Cost: 1, Period: 20},
	}
	got := SchedulingPoints(ts, 1)
	want := []float64{10, 20}
	if len(got) != len(want) {
		t.Fatalf("points = %v, want %v (10 appears via both tasks)", got, want)
	}
}

func TestLiuLaylandBound(t *testing.T) {
	if got := LiuLaylandBound(1); got != 1 {
		t.Errorf("LL(1) = %v, want 1", got)
	}
	if got := LiuLaylandBound(2); math.Abs(got-0.8284) > 1e-3 {
		t.Errorf("LL(2) = %v, want ≈0.8284", got)
	}
	if got := LiuLaylandBound(1000); math.Abs(got-math.Ln2) > 1e-3 {
		t.Errorf("LL(1000) = %v, want ≈ln2", got)
	}
	if got := LiuLaylandBound(0); got != 0 {
		t.Errorf("LL(0) = %v, want 0", got)
	}
}

func TestSufficientBoundsAreSound(t *testing.T) {
	// Any set admitted by LL or hyperbolic bound must pass the exact test.
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(6)
		ts := make(TaskSet, n)
		for i := range ts {
			period := 10e-3 + rng.Float64()*90e-3
			ts[i] = Task{Period: period, Cost: rng.Float64() * period / float64(n)}
		}
		ts = ts.SortRM()
		if !LiuLaylandSchedulable(ts) && !HyperbolicSchedulable(ts) {
			continue
		}
		checked++
		res, err := ResponseTimeAnalysis(ts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedulable {
			t.Fatalf("bound admitted an unschedulable set: %+v", ts)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d sets passed the bounds; test too weak", checked)
	}
}

func TestHyperbolicDominatesLL(t *testing.T) {
	// Bini–Buttazzo: everything LL admits, hyperbolic admits too.
	f := func(c1, c2, c3 uint8) bool {
		ts := TaskSet{
			{Cost: float64(c1%50) / 1000, Period: 0.1},
			{Cost: float64(c2%50) / 1000, Period: 0.15},
			{Cost: float64(c3%50) / 1000, Period: 0.3},
		}
		if LiuLaylandSchedulable(ts) && !HyperbolicSchedulable(ts) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUtilization(t *testing.T) {
	ts := liuLayland73()
	want := 0.4 + 40.0/150 + 100.0/350
	if got := ts.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
}

func TestSortRMDoesNotMutate(t *testing.T) {
	ts := TaskSet{{Cost: 1, Period: 5}, {Cost: 1, Period: 2}}
	sorted := ts.SortRM()
	if ts[0].Period != 5 {
		t.Error("SortRM mutated its receiver")
	}
	if sorted[0].Period != 2 {
		t.Error("SortRM did not sort")
	}
}

func TestHarmonicSetFullUtilization(t *testing.T) {
	// Harmonic periods reach utilization 1.0 under RM.
	ts := TaskSet{
		{Cost: 5e-3, Period: 10e-3},
		{Cost: 5e-3, Period: 20e-3},
		{Cost: 20e-3, Period: 80e-3},
	}
	if u := ts.Utilization(); math.Abs(u-1.0) > 1e-12 {
		t.Fatalf("test setup: utilization %v, want exactly 1.0", u)
	}
	res, err := ResponseTimeAnalysis(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("harmonic set at U=%.3f should be schedulable", ts.Utilization())
	}
}

// TestZeroCostTaskWithOverflowingCeiling: a zero-cost task above a task
// whose response time is ~1e309 of its periods makes ⌈r/P⌉ = +Inf, and
// 0·Inf used to turn the demand into NaN, failing a set that is
// schedulable in exact arithmetic (R₁ = 1e299 ≤ P₁). Every entry point of
// the one fixpoint reports it schedulable. The test-only oracles stay off
// this input: referenceRTA spins on it and ExactTest would enumerate
// ~1e310 scheduling points.
func TestZeroCostTaskWithOverflowingCeiling(t *testing.T) {
	ts := TaskSet{{Cost: 0, Period: 1e-10}, {Cost: 1e299, Period: 1e300}}
	for _, tc := range []struct {
		name string
		run  func() (ok bool, r1 float64, err error)
	}{
		{"ResponseTimeAnalysis", func() (bool, float64, error) {
			res, err := ResponseTimeAnalysis(ts, 0)
			return res.Schedulable && res.FirstFailure == -1, res.ResponseTimes[1], err
		}},
		{"Workspace.Schedulable", func() (bool, float64, error) {
			var w Workspace
			if err := w.Load(ts); err != nil {
				return false, 0, err
			}
			ok, err := w.Schedulable(0)
			return ok, w.lo.resp[1], err // a passing probe keeps its response times as lo
		}},
		{"Incremental", func() (bool, float64, error) {
			var w Incremental
			if err := w.Reset(0); err != nil {
				return false, 0, err
			}
			for i, task := range ts {
				if _, err := w.Splice(-1, i, task, 0); err != nil {
					return false, 0, err
				}
			}
			return w.Schedulable(), w.ResponseTime(1), nil
		}},
	} {
		ok, r1, err := tc.run()
		if err != nil || !ok || r1 != 1e299 {
			t.Errorf("%s: schedulable %v, R_1 %v, err %v; want schedulable with R_1 = 1e299", tc.name, ok, r1, err)
		}
	}
}
