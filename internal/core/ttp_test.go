package core

import (
	"math"
	"math/rand"
	"testing"

	"ringsched/internal/message"
)

func ttpTestSet() message.Set {
	return message.Set{
		{Name: "a", Period: 20e-3, LengthBits: 40_000},
		{Name: "b", Period: 50e-3, LengthBits: 100_000},
		{Name: "c", Period: 100e-3, LengthBits: 400_000},
	}
}

func TestTTPValidate(t *testing.T) {
	tt := NewTTP(100e6)
	if err := tt.Validate(); err != nil {
		t.Fatalf("paper TTP invalid: %v", err)
	}
	tt.Rule = TTRTRule(99)
	if err := tt.Validate(); err == nil {
		t.Error("bad rule accepted")
	}
	tt = NewTTP(100e6)
	tt.Rule = TTRTFixed
	if err := tt.Validate(); err == nil {
		t.Error("fixed rule without value accepted")
	}
	tt.FixedTTRT = 4e-3
	if err := tt.Validate(); err != nil {
		t.Errorf("fixed rule with value rejected: %v", err)
	}
}

func TestOverheadComposition(t *testing.T) {
	tt := NewTTP(100e6)
	want := tt.Net.Theta() + tt.AsyncFrame.Time(100e6)
	if got := tt.Overhead(); math.Abs(got-want) > 1e-18 {
		t.Errorf("Overhead = %v, want Θ+Fasync = %v", got, want)
	}
	// θ decreases with bandwidth (eq. 11 discussion).
	if NewTTP(1e9).Overhead() >= NewTTP(10e6).Overhead() {
		t.Error("θ did not decrease with bandwidth")
	}
}

func TestSelectTTRTRules(t *testing.T) {
	set := ttpTestSet()
	pmin := set.MinPeriod()

	sqrtRule := NewTTP(100e6)
	want := math.Min(math.Sqrt(sqrtRule.Overhead()*pmin), pmin/2)
	if got := sqrtRule.SelectTTRT(set); math.Abs(got-want) > 1e-18 {
		t.Errorf("sqrt rule TTRT = %v, want %v", got, want)
	}

	half := NewTTP(100e6)
	half.Rule = TTRTHalfMinPeriod
	if got := half.SelectTTRT(set); got != pmin/2 {
		t.Errorf("half rule TTRT = %v, want %v", got, pmin/2)
	}

	fixed := NewTTP(100e6)
	fixed.Rule = TTRTFixed
	fixed.FixedTTRT = 3e-3
	if got := fixed.SelectTTRT(set); got != 3e-3 {
		t.Errorf("fixed rule TTRT = %v, want 3ms", got)
	}
	// Fixed values above Pmin/2 are capped.
	fixed.FixedTTRT = 1
	if got := fixed.SelectTTRT(set); got != pmin/2 {
		t.Errorf("fixed rule TTRT = %v, want cap %v", got, pmin/2)
	}
}

func TestSelectTTRTCapAtLowBandwidth(t *testing.T) {
	// At 1 Mbps the FDDI θ is huge; √(θ·Pmin) would exceed Pmin/2 and
	// must be capped to keep q_i ≥ 2.
	tt := NewTTP(1e6)
	set := ttpTestSet()
	ttrt := tt.SelectTTRT(set)
	if ttrt > set.MinPeriod()/2+1e-18 {
		t.Fatalf("TTRT %v exceeds Pmin/2", ttrt)
	}
	if math.Sqrt(tt.Overhead()*set.MinPeriod()) <= set.MinPeriod()/2 {
		t.Skip("setup: sqrt no longer exceeds the cap at this bandwidth")
	}
}

func TestTheorem51ByHand(t *testing.T) {
	// Fixed TTRT for a hand-checkable criterion evaluation.
	const bw = 100e6
	tt := NewTTP(bw)
	tt.Rule = TTRTFixed
	tt.FixedTTRT = 5e-3
	set := ttpTestSet()

	rep, err := tt.Report(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TTRT != 5e-3 {
		t.Fatalf("TTRT = %v, want 5ms", rep.TTRT)
	}
	fovhd := tt.SyncFrame.OvhdTime(bw)
	var lhs float64
	for _, s := range set {
		q := math.Floor(s.Period / 5e-3)
		lhs += s.Length(bw) / (q - 1)
	}
	lhs += float64(len(set)) * fovhd
	wantSched := lhs <= 5e-3-tt.Overhead()
	if rep.Schedulable != wantSched {
		t.Errorf("Schedulable = %v, hand criterion says %v (lhs=%v rhs=%v)",
			rep.Schedulable, wantSched, lhs, 5e-3-tt.Overhead())
	}
	if math.Abs(rep.TotalAllocation-lhs) > 1e-15 {
		t.Errorf("TotalAllocation = %v, want Σh = %v", rep.TotalAllocation, lhs)
	}
}

func TestTTPReportStreams(t *testing.T) {
	const bw = 100e6
	tt := NewTTP(bw)
	set := ttpTestSet()
	rep, err := tt.Report(set)
	if err != nil {
		t.Fatal(err)
	}
	fovhd := tt.SyncFrame.OvhdTime(bw)
	for i, sr := range rep.Streams {
		// q_i = floor(P_i/TTRT).
		if want := int(math.Floor(set[i].Period / rep.TTRT)); sr.Q != want {
			t.Errorf("stream %d: Q = %d, want %d", i, sr.Q, want)
		}
		// C'_i = C_i + (q_i − 1)·Fovhd (eq. 8).
		wantAug := set[i].Length(bw) + float64(sr.Q-1)*fovhd
		if math.Abs(sr.AugmentedLength-wantAug) > 1e-15 {
			t.Errorf("stream %d: C' = %v, want %v", i, sr.AugmentedLength, wantAug)
		}
		// h_i = C'_i/(q_i − 1) (eq. 5): the deadline constraint holds with
		// equality by construction: (q−1)·h = C'.
		if math.Abs(float64(sr.Q-1)*sr.Allocation-wantAug) > 1e-12 {
			t.Errorf("stream %d: (q-1)h = %v, want C' = %v",
				i, float64(sr.Q-1)*sr.Allocation, wantAug)
		}
	}
}

func TestTTPMonotoneInScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gen := message.Generator{Streams: 15, MeanPeriod: 100e-3, PeriodRatio: 10}
	set, err := gen.Draw(rng)
	if err != nil {
		t.Fatal(err)
	}
	tt := NewTTP(100e6)
	tt.Net = tt.Net.WithStations(15)
	wasSchedulable := false
	for _, scale := range []float64{30, 10, 3, 1, 0.3, 0.1, 0.01} {
		ok, err := tt.Schedulable(set.Scale(scale))
		if err != nil {
			t.Fatal(err)
		}
		if wasSchedulable && !ok {
			t.Fatalf("TTP schedulability not monotone at scale %v", scale)
		}
		if ok {
			wasSchedulable = true
		}
	}
	if !wasSchedulable {
		t.Fatal("set never schedulable; test vacuous")
	}
}

func TestTTPUnschedulableWhenOverheadDominates(t *testing.T) {
	// At 1 Mbps, 100 stations of frame overhead exceed the rotation
	// capacity: nothing is schedulable (the Figure 1 left edge).
	tt := NewTTP(1e6)
	gen := message.PaperGenerator()
	set, err := gen.Draw(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tt.Schedulable(set.Scale(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("100-station FDDI at 1 Mbps should be infeasible even near zero load")
	}
}

func TestOverrunBudget(t *testing.T) {
	single := NewTTP(100e6)
	per := NewTTP(100e6)
	per.Overrun = OverrunPerStation
	fa := per.AsyncFrame.Time(100e6)
	wantDiff := float64(per.Net.Stations-1) * fa
	if got := per.Overhead() - single.Overhead(); math.Abs(got-wantDiff) > 1e-15 {
		t.Errorf("overhead difference = %v, want (n-1)·F = %v", got, wantDiff)
	}
	bad := NewTTP(100e6)
	bad.Overrun = OverrunBudget(42)
	if err := bad.Validate(); err == nil {
		t.Error("bad overrun budget accepted")
	}
	if OverrunSingleFrame.String() != "single-frame" || OverrunPerStation.String() != "per-station" {
		t.Error("OverrunBudget strings")
	}
	if OverrunBudget(9).String() == "" {
		t.Error("unknown budget should stringify")
	}
}

func TestPerStationOverrunIsMoreConservative(t *testing.T) {
	// Anything guaranteed under the per-station budget is guaranteed
	// under the paper's single-frame budget.
	rng := rand.New(rand.NewSource(44))
	gen := message.Generator{Streams: 15, MeanPeriod: 100e-3, PeriodRatio: 10}
	single := NewTTP(100e6)
	single.Net = single.Net.WithStations(15)
	per := single
	per.Overrun = OverrunPerStation
	checked := 0
	for trial := 0; trial < 40; trial++ {
		set, err := gen.Draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		set, err = set.ScaleToUtilization(0.1+rng.Float64()*0.8, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		okPer, err := per.Schedulable(set)
		if err != nil {
			t.Fatal(err)
		}
		okSingle, err := single.Schedulable(set)
		if err != nil {
			t.Fatal(err)
		}
		if okPer && !okSingle {
			t.Fatalf("per-station budget admitted a set the single-frame budget rejects")
		}
		if okPer {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("vacuous: no set admitted under the conservative budget")
	}
}

func TestWorstCaseResponseBound(t *testing.T) {
	tt := NewTTP(100e6)
	rep, err := tt.Report(ttpTestSet())
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range rep.Streams {
		want := float64(sr.Q) * rep.TTRT
		if math.Abs(sr.WorstCaseResponse-want) > 1e-15 {
			t.Errorf("stream %d: WCR = %v, want q·TTRT = %v", i, sr.WorstCaseResponse, want)
		}
		// The bound never exceeds the period — that is the guarantee.
		if sr.WorstCaseResponse > sr.Stream.Period {
			t.Errorf("stream %d: WCR %v exceeds period %v", i, sr.WorstCaseResponse, sr.Stream.Period)
		}
	}
}

func TestTTPName(t *testing.T) {
	if NewTTP(1e8).Name() != "FDDI" {
		t.Error("TTP name")
	}
}

func TestTTRTRuleStrings(t *testing.T) {
	for rule, want := range map[TTRTRule]string{
		TTRTSqrtHeuristic: "sqrt(theta*Pmin)",
		TTRTHalfMinPeriod: "Pmin/2",
		TTRTFixed:         "fixed",
	} {
		if rule.String() != want {
			t.Errorf("%d.String() = %q, want %q", rule, rule.String(), want)
		}
	}
	if TTRTRule(77).String() == "" {
		t.Error("unknown rule should stringify")
	}
}

func TestTTPSchedulableErrors(t *testing.T) {
	tt := NewTTP(100e6)
	if _, err := tt.Schedulable(nil); err == nil {
		t.Error("nil set accepted")
	}
	bad := NewTTP(100e6)
	bad.SyncFrame.InfoBits = -1
	if _, err := bad.Schedulable(ttpTestSet()); err == nil {
		t.Error("invalid frame accepted")
	}
}

func TestIdealRM(t *testing.T) {
	// Interprets LengthBits as seconds of execution at bandwidth 1.
	sched := message.Set{
		{Period: 100e-3, LengthBits: 40e-3},
		{Period: 150e-3, LengthBits: 40e-3},
		{Period: 350e-3, LengthBits: 100e-3},
	}
	ok, err := IdealRM{}.Schedulable(sched)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("classic RM example should be schedulable")
	}
	over := message.Set{
		{Period: 100e-3, LengthBits: 60e-3},
		{Period: 140e-3, LengthBits: 60e-3},
	}
	ok, err = IdealRM{}.Schedulable(over)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("overloaded set reported schedulable")
	}
	if (IdealRM{}).Name() != "Ideal RM" {
		t.Error("IdealRM name")
	}
	if _, err := (IdealRM{}).Schedulable(nil); err == nil {
		t.Error("nil set accepted")
	}
}

// TestTTPStreamTermSaturatesVisits: a stream whose period allows 2⁶³ or
// more rotations (1e297 s at 100 Mbps, TTRT ≈ 3.56e146 s) is guaranteed
// math.MaxInt64 visits, with a finite allocation, through both Report and
// the scaled probe — not a wrapped count of 1 and an infinite allocation.
func TestTTPStreamTermSaturatesVisits(t *testing.T) {
	a := NewTTP(100e6)
	m := message.Set{{Name: "far", Period: 1e297, LengthBits: 4096}}
	rep, err := a.Report(m)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Streams[0]
	if s.Q != math.MaxInt64 || math.IsInf(s.Allocation, 0) || !(s.Allocation > 0) ||
		!(s.WorstCaseResponse <= m[0].Period) || !rep.Schedulable {
		t.Fatalf("Report: TTRT %g, Q %d, allocation %g, response %g, schedulable %v; want Q=MaxInt64, a finite allocation, schedulable",
			rep.TTRT, s.Q, s.Allocation, s.WorstCaseResponse, rep.Schedulable)
	}
	probe, release, err := a.NewProbe(m)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if ok, err := probe.Schedulable(1); err != nil || !ok {
		t.Fatalf("probe at scale 1: %v, %v; want schedulable", ok, err)
	}
}

// TestTTPStreamTermExactBelowSaturation: below 2⁶³ visits the count is
// the plain floor, so every term stays what the unsaturated formula gave.
func TestTTPStreamTermExactBelowSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 5000; k++ {
		period := math.Exp(rng.Float64()*60 - 10)
		ttrt := math.Exp(rng.Float64()*20 - 15)
		avail := []float64{1, rng.Float64(), 0.999}[k%3]
		visits := math.Floor(avail * period / ttrt)
		if visits >= math.Ldexp(1, 63) {
			continue
		}
		want := int(visits)
		if want < 2 {
			want = 1
		}
		q, cAug, h, wcr := TTPStreamTerm(1e-3, period, ttrt, 2e-6, avail)
		if q != want || cAug != 1e-3+float64(want-1)*2e-6 || wcr != float64(want)*ttrt/avail {
			t.Fatalf("period %g ttrt %g avail %g: q %d C' %g wcr %g, want q %d", period, ttrt, avail, q, cAug, wcr, want)
		}
		if (want < 2) != math.IsInf(h, 1) {
			t.Fatalf("period %g ttrt %g: q %d but allocation %g", period, ttrt, q, h)
		}
	}
	if q, _, _, _ := TTPStreamTerm(0, math.Ldexp(1, 63), 1, 0, 1); q != math.MaxInt64 {
		t.Fatalf("2⁶³ visits: q %d, want math.MaxInt64", q)
	}
	if q, _, _, _ := TTPStreamTerm(0, math.Ldexp(1, 62), 1, 0, 1); q != 1<<62 {
		t.Fatalf("2⁶² visits: q %d, want 2⁶²", q)
	}
}
