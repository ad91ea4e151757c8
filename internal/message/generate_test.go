package message

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratorValidate(t *testing.T) {
	tests := []struct {
		name string
		gen  Generator
		want error
	}{
		{"valid", Generator{Streams: 10, MeanPeriod: 0.1, PeriodRatio: 10}, nil},
		{"zero streams", Generator{MeanPeriod: 0.1, PeriodRatio: 10}, ErrBadStreamCount},
		{"zero mean", Generator{Streams: 10, PeriodRatio: 10}, ErrBadMeanPeriod},
		{"ratio below one", Generator{Streams: 10, MeanPeriod: 0.1, PeriodRatio: 0.5}, ErrBadRatio},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.gen.Validate()
			if tt.want == nil && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Errorf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDrawNilRand(t *testing.T) {
	gen := PaperGenerator()
	if _, err := gen.Draw(nil); !errors.Is(err, ErrNilRand) {
		t.Errorf("Draw(nil) err = %v, want ErrNilRand", err)
	}
}

func TestPeriodBounds(t *testing.T) {
	gen := Generator{Streams: 1, MeanPeriod: 100e-3, PeriodRatio: 10}
	pmin, pmax := gen.PeriodBounds()
	if math.Abs((pmin+pmax)/2-gen.MeanPeriod) > 1e-15 {
		t.Errorf("midpoint %v, want %v", (pmin+pmax)/2, gen.MeanPeriod)
	}
	if math.Abs(pmax/pmin-gen.PeriodRatio) > 1e-12 {
		t.Errorf("ratio %v, want %v", pmax/pmin, gen.PeriodRatio)
	}
}

func TestDrawRespectsBoundsAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, pm := range []PeriodModel{PeriodsUniform, PeriodsLogUniform, PeriodsEqual} {
		for _, lm := range []LengthModel{LengthsProportional, LengthsUniform, LengthsEqual} {
			gen := Generator{Streams: 50, MeanPeriod: 100e-3, PeriodRatio: 10, Periods: pm, Lengths: lm}
			set, err := gen.Draw(rng)
			if err != nil {
				t.Fatalf("Draw(%v,%v): %v", pm, lm, err)
			}
			if err := set.Validate(); err != nil {
				t.Fatalf("Draw(%v,%v) produced invalid set: %v", pm, lm, err)
			}
			if len(set) != 50 {
				t.Fatalf("Draw produced %d streams, want 50", len(set))
			}
			pmin, pmax := gen.PeriodBounds()
			for _, s := range set {
				if s.Period < pmin-1e-12 || s.Period > pmax+1e-12 {
					t.Fatalf("period %v outside [%v, %v] under %v", s.Period, pmin, pmax, pm)
				}
			}
		}
	}
}

func TestDrawEqualPeriods(t *testing.T) {
	gen := Generator{Streams: 10, MeanPeriod: 50e-3, PeriodRatio: 4, Periods: PeriodsEqual}
	set, err := gen.Draw(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range set {
		if s.Period != 50e-3 {
			t.Fatalf("PeriodsEqual produced period %v, want 50ms", s.Period)
		}
	}
}

func TestDrawHarmonicPeriods(t *testing.T) {
	gen := Generator{Streams: 60, MeanPeriod: 100e-3, PeriodRatio: 10, Periods: PeriodsHarmonic}
	set, err := gen.Draw(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	pmin, pmax := gen.PeriodBounds()
	for _, s := range set {
		if s.Period < pmin-1e-12 || s.Period > pmax+1e-12 {
			t.Fatalf("harmonic period %v outside [%v, %v]", s.Period, pmin, pmax)
		}
		// Every period must be pmin × a power of two.
		ratio := s.Period / pmin
		k := math.Log2(ratio)
		if math.Abs(k-math.Round(k)) > 1e-9 {
			t.Fatalf("period %v is not pmin·2^k (ratio %v)", s.Period, ratio)
		}
	}
	// Any two periods divide each other (harmonic chain).
	for _, a := range set {
		for _, b := range set {
			lo, hi := a.Period, b.Period
			if lo > hi {
				lo, hi = hi, lo
			}
			q := hi / lo
			if math.Abs(q-math.Round(q)) > 1e-9 {
				t.Fatalf("periods %v and %v not harmonic", a.Period, b.Period)
			}
		}
	}
}

func TestDrawDeterministic(t *testing.T) {
	gen := PaperGenerator()
	a, err := gen.Draw(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Draw(rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different sets at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDrawDifferentSeedsDiffer(t *testing.T) {
	gen := PaperGenerator()
	a, _ := gen.Draw(rand.New(rand.NewSource(1)))
	b, _ := gen.Draw(rand.New(rand.NewSource(2)))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestDrawMeanPeriodConverges(t *testing.T) {
	// The empirical mean over many uniform draws should approach the
	// configured mean.
	gen := Generator{Streams: 5000, MeanPeriod: 100e-3, PeriodRatio: 10}
	set, err := gen.Draw(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range set {
		sum += s.Period
	}
	mean := sum / float64(len(set))
	if math.Abs(mean-100e-3) > 5e-3 {
		t.Errorf("empirical mean period %v, want ≈100ms", mean)
	}
}

func TestDrawPropertyAllValid(t *testing.T) {
	f := func(seed int64, streamsRaw uint8, ratioRaw uint8) bool {
		gen := Generator{
			Streams:     int(streamsRaw%64) + 1,
			MeanPeriod:  10e-3,
			PeriodRatio: 1 + float64(ratioRaw)/8,
		}
		set, err := gen.Draw(rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return set.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModelStrings(t *testing.T) {
	if PeriodsUniform.String() != "uniform" || PeriodsLogUniform.String() != "log-uniform" ||
		PeriodsEqual.String() != "equal" || PeriodsHarmonic.String() != "harmonic" {
		t.Error("PeriodModel.String mismatch")
	}
	if LengthsProportional.String() != "proportional" || LengthsUniform.String() != "uniform" ||
		LengthsEqual.String() != "equal" {
		t.Error("LengthModel.String mismatch")
	}
	if PeriodModel(99).String() == "" || LengthModel(99).String() == "" {
		t.Error("unknown model String should be non-empty")
	}
}

// TestStreamNamesMatchSprintf: the name table and the Sprintf fallback
// past it give every drawn stream the name it always had.
func TestStreamNamesMatchSprintf(t *testing.T) {
	for i := 0; i < 2*len(streamNames); i++ {
		if got, want := streamName(i), fmt.Sprintf("S%d", i+1); got != want {
			t.Fatalf("streamName(%d) = %q, want %q", i, got, want)
		}
	}
}
