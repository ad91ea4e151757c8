package rma

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzExactTest cross-checks the allocation-free workspace kernels against
// the reference implementations on fuzzer-chosen task sets: same verdict,
// same first failure, bit-identical response times. Each input then drives
// one workspace's Schedulable through a seed-derived probe sequence (see
// probeSequence), so the bracket state carried between calls is fuzzed
// too. The corpus entry is a (seed, size, blocking, scale) tuple; the set
// and the sequence are derived deterministically so crashes replay.
func FuzzExactTest(f *testing.F) {
	f.Add(int64(1), uint8(3), 0.01, 1.0)
	f.Add(int64(7), uint8(1), 0.0, 4.0)
	f.Add(int64(42), uint8(17), 0.2, 0.25)
	f.Add(int64(9), uint8(8), 1e-9, 1e3)
	f.Add(int64(5), uint8(24), 0.02, 1.0/64)
	// Probe sequences whose blocking changes and single-ulp cost moves
	// catch a bracket inference applied without cost dominance.
	f.Add(int64(-103), uint8(3), 0.03, 2.0)
	f.Add(int64(1), uint8(6), 0.00125, 0.2)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, blocking, scale float64) {
		if n == 0 || n > 24 {
			return
		}
		if !(blocking >= 0) || math.IsInf(blocking, 0) {
			return
		}
		if !(scale > 0) || math.IsInf(scale, 0) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		ts := make(TaskSet, n)
		for i := range ts {
			period := math.Exp(rng.Float64()*6 - 3)
			ts[i] = Task{Cost: rng.Float64() * period * 0.5, Period: period}
		}

		var ws Workspace
		if err := ws.Load(ts); err != nil {
			t.Fatalf("Load: %v", err)
		}
		ws.ScaleCosts(scale)
		scaled := ts.SortRM()
		for i := range scaled {
			scaled[i].Cost *= scale
		}
		for i := range scaled {
			if math.IsInf(scaled[i].Cost, 0) {
				return // overflowed cost: both paths reject, nothing to compare
			}
		}

		refExact, err := ExactTest(scaled, blocking)
		if err != nil {
			t.Fatalf("reference ExactTest: %v", err)
		}
		wsExact, err := ws.ExactTest(blocking)
		if err != nil {
			t.Fatalf("workspace ExactTest: %v", err)
		}
		if wsExact.Schedulable != refExact.Schedulable || wsExact.FirstFailure != refExact.FirstFailure {
			t.Fatalf("workspace ExactTest (%v,%d) != reference (%v,%d) for seed=%d n=%d blocking=%g scale=%g",
				wsExact.Schedulable, wsExact.FirstFailure,
				refExact.Schedulable, refExact.FirstFailure, seed, n, blocking, scale)
		}

		refRTA, err := ResponseTimeAnalysis(scaled, blocking)
		if err != nil {
			t.Fatalf("reference RTA: %v", err)
		}
		if refRTA.Schedulable != refExact.Schedulable {
			t.Fatalf("reference RTA and ExactTest disagree for seed=%d n=%d blocking=%g scale=%g",
				seed, n, blocking, scale)
		}
		wsRTA, err := ws.ResponseTimeAnalysis(blocking)
		if err != nil {
			t.Fatalf("workspace RTA: %v", err)
		}
		for i := range refRTA.ResponseTimes {
			if math.Float64bits(wsRTA.ResponseTimes[i]) != math.Float64bits(refRTA.ResponseTimes[i]) {
				t.Fatalf("task %d response %v != reference %v", i, wsRTA.ResponseTimes[i], refRTA.ResponseTimes[i])
			}
		}

		ok, err := ws.Schedulable(blocking)
		if err != nil {
			t.Fatalf("workspace Schedulable: %v", err)
		}
		if ok != refExact.Schedulable {
			t.Fatalf("workspace Schedulable %v != reference %v", ok, refExact.Schedulable)
		}

		probeSequence(t, rng, ts, blocking, scale)
	})
}

// probeSequence drives a fresh workspace's Schedulable through 48 probes
// drawn from rng: scales going up and down, repeated scales, bisection
// steps between the last pass and the last failure, blocking changes,
// single-ulp moves of one cost, and framed costs — payloads on exact
// 512-bit frame boundaries, probed at dyadic scales, that plateau at one
// frame for small scales. Every verdict must equal the reference
// ResponseTimeAnalysis on a freshly built set with the same costs.
func probeSequence(t *testing.T, rng *rand.Rand, ts TaskSet, blocking, scale float64) {
	t.Helper()
	sorted := ts.SortRM() // the workspace's order
	n := len(sorted)
	bits := make([]float64, n)
	perFrame := make([]float64, n)
	for i := range sorted {
		bits[i] = float64(1+rng.Intn(64)) * 512
		perFrame[i] = sorted[i].Period * 0.05 * rng.Float64()
	}
	var ws Workspace
	if err := ws.Load(ts); err != nil {
		t.Fatalf("Load: %v", err)
	}
	costs := make([]float64, n)
	framed := rng.Intn(2) == 0
	s, b := scale, blocking
	lo, hi := 0.0, math.Inf(1)
	for step := 0; step < 48; step++ {
		switch rng.Intn(8) {
		case 0:
			s *= 1 + rng.Float64()
		case 1:
			s /= 1 + rng.Float64()
		case 2: // repeat the previous probe's scale
		case 3:
			if lo > 0 && !math.IsInf(hi, 0) {
				s = lo + (hi-lo)/2
			}
		case 4:
			b = [...]float64{blocking, 2 * blocking, blocking / 2, 0}[rng.Intn(4)]
		case 5:
			s = math.Ldexp(1, rng.Intn(12)-8)
		case 6:
			framed = !framed
		}
		for i, task := range sorted {
			if framed {
				costs[i] = math.Max(1, math.Ceil(bits[i]*s/512)) * perFrame[i]
			} else {
				costs[i] = task.Cost * s
			}
		}
		if i := rng.Intn(2 * n); i < n && costs[i] > 0 {
			costs[i] = math.Nextafter(costs[i], math.Inf(2*rng.Intn(2)-1))
		}

		fresh := make(TaskSet, n)
		work := ws.Tasks()
		for i := range fresh {
			fresh[i] = Task{Cost: costs[i], Period: sorted[i].Period}
			work[i].Cost = costs[i]
		}
		want, errRef := ResponseTimeAnalysis(fresh, b)
		got, err := ws.Schedulable(b)
		if (err == nil) != (errRef == nil) {
			t.Fatalf("step %d scale %g blocking %g: workspace err %v, reference err %v", step, s, b, err, errRef)
		}
		if err != nil {
			continue
		}
		if got != want.Schedulable {
			t.Fatalf("step %d scale %g blocking %g framed %v: workspace Schedulable %v, reference %v",
				step, s, b, framed, got, want.Schedulable)
		}
		if got {
			lo = s
		} else {
			hi = s
		}
	}
}
