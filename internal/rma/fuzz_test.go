package rma

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzExactTest cross-checks the production kernels against the test-only
// oracles on fuzzer-chosen task sets: the scheduling-point test and the
// frozen response-time loop agree on verdict and first failure;
// ResponseTimeAnalysis and an Incremental built task by task reproduce the
// frozen loop's response times bit for bit; and a workspace's Schedulable
// gives the same verdict. Each input then drives one workspace's
// Schedulable through a seed-derived probe sequence (see probeSequence),
// so the bracket state carried between calls is fuzzed too. The corpus
// entry is a (seed, size, blocking, scale) tuple; the set and the sequence
// are derived deterministically so crashes replay.
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
	// A point 3·P₀ whose quotient by P₀ rounds to 3.0000000000000004: a
	// point test charging ⌈t/P⌉ counts a fourth release there and rejects
	// the schedulable pair of TestExactTestFloatPoints.
	f.Add(int64(164), uint8(2), 0.022222222222222223, 1.5)
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
		where := fmt.Sprintf("seed=%d n=%d blocking=%v scale=%v", seed, n, blocking, scale)

		refExact, err := ExactTest(scaled, blocking)
		if err != nil {
			t.Fatalf("reference ExactTest: %v", err)
		}
		refRTA, err := referenceRTA(scaled, blocking)
		if err != nil {
			t.Fatalf("reference RTA: %v", err)
		}
		if refRTA.Schedulable != refExact.Schedulable || refRTA.FirstFailure != refExact.FirstFailure {
			t.Fatalf("reference RTA (%v,%d) and ExactTest (%v,%d) disagree for %s",
				refRTA.Schedulable, refRTA.FirstFailure, refExact.Schedulable, refExact.FirstFailure, where)
		}

		rta, err := ResponseTimeAnalysis(scaled, blocking)
		if err != nil {
			t.Fatalf("RTA: %v", err)
		}
		checkRTA(t, rta, refRTA)

		var inc Incremental
		if err := inc.Reset(blocking); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		for i, task := range scaled {
			if _, err := inc.Splice(-1, i, task, blocking); err != nil {
				t.Fatalf("Splice(-1, %d): %v", i, err)
			}
		}
		for i, want := range refRTA.ResponseTimes {
			if got := inc.ResponseTime(i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("incremental task %d response %v != reference %v for %s", i, got, want, where)
			}
		}

		ok, err := ws.Schedulable(blocking)
		if err != nil {
			t.Fatalf("workspace Schedulable: %v", err)
		}
		if ok != refExact.Schedulable {
			t.Fatalf("workspace Schedulable %v != reference %v for %s", ok, refExact.Schedulable, where)
		}

		probeSequence(t, rng, ts, blocking, scale)
	})
}

// probeSequence drives a fresh workspace's Schedulable through 48 probes
// drawn from rng: scales going up and down, repeated scales, bisection
// steps between the last pass and the last failure, blocking changes,
// single-ulp moves of one cost, and framed costs — payloads on exact
// 512-bit frame boundaries, probed at dyadic scales, that plateau at one
// frame for small scales. Every verdict must equal the frozen reference
// loop's on a freshly built set with the same costs, and after every pass
// the response times the workspace keeps must pass checkLoBounds.
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
		want, errRef := referenceRTA(fresh, b)
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
			checkLoBounds(t, &ws)
		} else {
			hi = s
		}
	}
}
