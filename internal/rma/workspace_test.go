package rma

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomTaskSet draws a task set exercising the analyzers' interesting
// regimes: mixed utilizations, occasional zero costs, occasional equal
// periods.
func randomTaskSet(rng *rand.Rand) TaskSet {
	n := 1 + rng.Intn(20)
	ts := make(TaskSet, n)
	var period float64
	for i := range ts {
		// 1 in 8 tasks reuses the previous period (ties exercise the
		// stable sort and scheduling-point dedupe).
		if i == 0 || rng.Intn(8) != 0 {
			period = math.Exp(rng.Float64()*4 - 2) // ~[0.14, 7.4)
		}
		cost := rng.Float64() * period * 0.4
		if rng.Intn(10) == 0 {
			cost = 0
		}
		ts[i] = Task{Cost: cost, Period: period}
	}
	return ts
}

// TestWorkspaceDifferentialParity is the rma half of the differential
// suite: over 1000+ seeded random task sets, the production kernels must
// agree with the test-only oracles — ResponseTimeAnalysis bit-identical to
// the frozen reference loop, the workspace's verdict equal to both oracles
// (the frozen loop and the scheduling-point test), and the two oracles on
// the same first failure — including while costs are rescaled between
// probes the way the saturation search does.
func TestWorkspaceDifferentialParity(t *testing.T) {
	sets := 1200
	if testing.Short() {
		sets = 300
	}
	rng := rand.New(rand.NewSource(41))
	var ws Workspace
	for k := 0; k < sets; k++ {
		ts := randomTaskSet(rng)
		blocking := rng.Float64() * 0.1
		if rng.Intn(6) == 0 {
			blocking = 0
		}
		if err := ws.Load(ts); err != nil {
			t.Fatalf("set %d: Load: %v", k, err)
		}
		// Probe a bisection-like ladder of scale factors on one loaded
		// workspace, comparing each probe against the oracles applied to
		// a freshly scaled copy.
		scales := []float64{1, 2, 4, 8, 4.7, 2.3, 1.1, 0.9, 0.5, 0.25, 1.7, 1}
		for _, scale := range scales {
			scaled := ts.SortRM()
			for i := range scaled {
				scaled[i].Cost *= scale
			}
			ws.ScaleCosts(scale)

			refRTA, err := referenceRTA(scaled, blocking)
			if err != nil {
				t.Fatalf("set %d scale %g: reference RTA: %v", k, scale, err)
			}
			refExact, err := ExactTest(scaled, blocking)
			if err != nil {
				t.Fatalf("set %d scale %g: reference ExactTest: %v", k, scale, err)
			}
			if refRTA.Schedulable != refExact.Schedulable || refRTA.FirstFailure != refExact.FirstFailure {
				t.Fatalf("set %d scale %g: reference RTA (%v,%d) and ExactTest (%v,%d) disagree",
					k, scale, refRTA.Schedulable, refRTA.FirstFailure,
					refExact.Schedulable, refExact.FirstFailure)
			}

			got, err := ws.Schedulable(blocking)
			if err != nil {
				t.Fatalf("set %d scale %g: workspace Schedulable: %v", k, scale, err)
			}
			if got != refRTA.Schedulable {
				t.Fatalf("set %d scale %g: workspace verdict %v, reference %v",
					k, scale, got, refRTA.Schedulable)
			}

			rta, err := ResponseTimeAnalysis(scaled, blocking)
			if err != nil {
				t.Fatalf("set %d scale %g: RTA: %v", k, scale, err)
			}
			checkRTA(t, rta, refRTA)
		}
	}
}

// checkRTA asserts a production response-time analysis is bit-identical
// to the frozen reference loop's.
func checkRTA(t *testing.T, got, want Result) {
	t.Helper()
	if got.Schedulable != want.Schedulable || got.FirstFailure != want.FirstFailure {
		t.Fatalf("RTA (%v,%d), reference (%v,%d)",
			got.Schedulable, got.FirstFailure, want.Schedulable, want.FirstFailure)
	}
	for i := range want.ResponseTimes {
		if math.Float64bits(got.ResponseTimes[i]) != math.Float64bits(want.ResponseTimes[i]) {
			t.Fatalf("task %d: response %v != reference %v", i, got.ResponseTimes[i], want.ResponseTimes[i])
		}
	}
}

// TestWorkspaceDegenerateParity pins the degenerate corners the random
// draw only occasionally hits: all-zero costs, all-equal periods, a
// single task, and blocking exactly at the boundary.
func TestWorkspaceDegenerateParity(t *testing.T) {
	cases := []struct {
		name     string
		ts       TaskSet
		blocking float64
	}{
		{"all-zero-costs", TaskSet{{0, 1}, {0, 2}, {0, 4}}, 0.5},
		{"equal-periods", TaskSet{{0.2, 1}, {0.3, 1}, {0.4, 1}}, 0.05},
		{"single", TaskSet{{0.7, 1}}, 0.3},
		{"blocking-fills-period", TaskSet{{0.25, 1}, {0.25, 2}}, 0.75},
		{"harmonic", TaskSet{{0.2, 1}, {0.2, 2}, {0.2, 4}, {0.2, 8}}, 0},
		{"unschedulable", TaskSet{{0.9, 1}, {0.9, 1.5}}, 0.1},
	}
	var ws Workspace
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ws.Load(tc.ts); err != nil {
				t.Fatalf("Load: %v", err)
			}
			sorted := tc.ts.SortRM()
			ref, err := referenceRTA(sorted, tc.blocking)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := ws.Schedulable(tc.blocking)
			if err != nil {
				t.Fatalf("workspace: %v", err)
			}
			if got != ref.Schedulable {
				t.Fatalf("verdict %v, reference %v", got, ref.Schedulable)
			}
			refExact, err := ExactTest(sorted, tc.blocking)
			if err != nil {
				t.Fatalf("reference exact: %v", err)
			}
			if refExact.Schedulable != ref.Schedulable || refExact.FirstFailure != ref.FirstFailure {
				t.Fatalf("exact %+v, reference RTA %+v", refExact, ref)
			}
			rta, err := ResponseTimeAnalysis(sorted, tc.blocking)
			if err != nil {
				t.Fatalf("RTA: %v", err)
			}
			checkRTA(t, rta, ref)
		})
	}
}

// TestSchedulingPointsHarmonicDedupe is the regression test for duplicated
// points under harmonically related periods: every l·P_k collision (2·1 ==
// 1·2, 4·1 == 2·2 == 1·4, ...) must appear exactly once in the oracle's
// SchedulingPoints.
func TestSchedulingPointsHarmonicDedupe(t *testing.T) {
	ts := TaskSet{{0.1, 1}, {0.1, 2}, {0.1, 4}, {0.1, 8}}
	want := [][]float64{
		{1},
		{1, 2},
		{1, 2, 3, 4},
		{1, 2, 3, 4, 5, 6, 7, 8},
	}
	for i := range ts {
		pts := SchedulingPoints(ts, i)
		if len(pts) != len(want[i]) {
			t.Fatalf("task %d: %d points %v, want %v", i, len(pts), pts, want[i])
		}
		for j := range pts {
			if pts[j] != want[i][j] {
				t.Fatalf("task %d point %d: %v, want %v", i, j, pts[j], want[i][j])
			}
		}
	}
}

// TestInfiniteBlockingRejected: ±Inf blocking is rejected by the RTA, the
// point-test oracle and the workspace, like NaN and negative values.
func TestInfiniteBlockingRejected(t *testing.T) {
	ts := TaskSet{{0.1, 1}}
	var ws Workspace
	if err := ws.Load(ts); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		if _, err := ResponseTimeAnalysis(ts, b); !errors.Is(err, ErrBadBlocking) {
			t.Errorf("RTA blocking %v: err %v, want ErrBadBlocking", b, err)
		}
		if _, err := ExactTest(ts, b); !errors.Is(err, ErrBadBlocking) {
			t.Errorf("ExactTest blocking %v: err %v, want ErrBadBlocking", b, err)
		}
		if _, err := ws.Schedulable(b); !errors.Is(err, ErrBadBlocking) {
			t.Errorf("workspace blocking %v: err %v, want ErrBadBlocking", b, err)
		}
	}
	if _, err := ResponseTimeAnalysis(ts, 0); err != nil {
		t.Errorf("zero blocking rejected: %v", err)
	}
}

// TestWorkspaceWidePeriodSpread drives a period spread of 1.5·10⁶
// (floor(P_max/P_min) scheduling points for the low-priority task alone)
// and checks the workspace verdict against both oracles at several scales.
func TestWorkspaceWidePeriodSpread(t *testing.T) {
	ts := TaskSet{{1e-6, 2e-5}, {0.5, 30}}
	var ws Workspace
	if err := ws.Load(ts); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, scale := range []float64{0.5, 1, 2, 10, 15, 30} {
		ws.ScaleCosts(scale)
		scaled := ts.SortRM()
		for i := range scaled {
			scaled[i].Cost *= scale
		}
		ref, err := referenceRTA(scaled, 1e-6)
		if err != nil {
			t.Fatalf("scale %g: reference: %v", scale, err)
		}
		got, err := ws.Schedulable(1e-6)
		if err != nil {
			t.Fatalf("scale %g: workspace: %v", scale, err)
		}
		if got != ref.Schedulable {
			t.Fatalf("scale %g: verdict %v, reference %v", scale, got, ref.Schedulable)
		}
	}
	// The point test visits 1.5M points for this spread, so check it at a
	// single scale.
	refExact, err := ExactTest(ts.SortRM(), 1e-6)
	if err != nil {
		t.Fatalf("reference exact: %v", err)
	}
	rta, err := ResponseTimeAnalysis(ts.SortRM(), 1e-6)
	if err != nil {
		t.Fatalf("RTA: %v", err)
	}
	if rta.Schedulable != refExact.Schedulable || rta.FirstFailure != refExact.FirstFailure {
		t.Fatalf("RTA %+v, exact %+v", rta, refExact)
	}
}

// TestWorkspaceLoadErrors checks Load rejects what ResponseTimeAnalysis
// rejects.
func TestWorkspaceLoadErrors(t *testing.T) {
	var ws Workspace
	if err := ws.Load(nil); !errors.Is(err, ErrEmptyTaskSet) {
		t.Errorf("empty: %v, want ErrEmptyTaskSet", err)
	}
	if err := ws.Load(TaskSet{{-1, 1}}); !errors.Is(err, ErrBadTask) {
		t.Errorf("negative cost: %v, want ErrBadTask", err)
	}
	if err := ws.Load(TaskSet{{1, math.NaN()}}); !errors.Is(err, ErrBadTask) {
		t.Errorf("NaN period: %v, want ErrBadTask", err)
	}
	// An unloaded (or failed-load) workspace reports the empty-set error.
	var empty Workspace
	if _, err := empty.Schedulable(0); !errors.Is(err, ErrEmptyTaskSet) {
		t.Errorf("unloaded Schedulable: %v, want ErrEmptyTaskSet", err)
	}
}
