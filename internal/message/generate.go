package message

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Errors returned by generator validation.
var (
	ErrBadStreamCount = errors.New("message: stream count must be positive")
	ErrBadMeanPeriod  = errors.New("message: mean period must be positive")
	ErrBadRatio       = errors.New("message: max/min period ratio must be >= 1")
	ErrNilRand        = errors.New("message: generator requires a non-nil *rand.Rand")
)

// PeriodModel selects the distribution periods are drawn from.
type PeriodModel int

const (
	// PeriodsUniform draws periods uniformly from [Pmin, Pmax], the
	// distribution used in the paper's comparison (Section 6.2).
	PeriodsUniform PeriodModel = iota + 1
	// PeriodsLogUniform draws log(P) uniformly, spreading samples evenly
	// across decades; used by the ablation experiments.
	PeriodsLogUniform
	// PeriodsEqual makes every period equal to the mean; used by the TTRT
	// selection experiment, which the paper derives for equal periods.
	PeriodsEqual
	// PeriodsHarmonic draws periods as Pmin·2^k (k uniform over the
	// powers of two inside [Pmin, Pmax]). Harmonic sets are the classic
	// best case for rate-monotonic scheduling: ideal RM reaches 100 %
	// breakdown utilization on them.
	PeriodsHarmonic
)

// String implements fmt.Stringer.
func (p PeriodModel) String() string {
	switch p {
	case PeriodsUniform:
		return "uniform"
	case PeriodsLogUniform:
		return "log-uniform"
	case PeriodsEqual:
		return "equal"
	case PeriodsHarmonic:
		return "harmonic"
	default:
		return fmt.Sprintf("PeriodModel(%d)", int(p))
	}
}

// LengthModel selects how relative message lengths are drawn. Absolute
// magnitude is irrelevant to breakdown estimation (sets are rescaled to
// saturation); only the mix matters.
type LengthModel int

const (
	// LengthsProportional draws each stream's payload as an independent
	// uniform fraction of its own period, so expected per-stream
	// utilization is equal across streams. This mirrors the
	// Lehoczky–Sha–Ding Monte Carlo setup.
	LengthsProportional LengthModel = iota + 1
	// LengthsUniform draws payloads independent of the period, biasing
	// utilization toward short-period streams.
	LengthsUniform
	// LengthsEqual gives every stream the same payload.
	LengthsEqual
)

// String implements fmt.Stringer.
func (l LengthModel) String() string {
	switch l {
	case LengthsProportional:
		return "proportional"
	case LengthsUniform:
		return "uniform"
	case LengthsEqual:
		return "equal"
	default:
		return fmt.Sprintf("LengthModel(%d)", int(l))
	}
}

// Generator draws random synchronous message sets for Monte Carlo
// estimation. The paper's comparison uses n=100 streams with uniform
// periods of mean 100 ms and a max/min ratio of 10.
type Generator struct {
	// Streams is the number of streams n (one per station).
	Streams int
	// MeanPeriod is the average period in seconds.
	MeanPeriod float64
	// PeriodRatio is the max/min period ratio (>= 1).
	PeriodRatio float64
	// Periods selects the period distribution; zero value means
	// PeriodsUniform.
	Periods PeriodModel
	// Lengths selects the relative length mix; zero value means
	// LengthsProportional.
	Lengths LengthModel
	// ReferenceBandwidthBPS sets the scale of the initial (pre-saturation)
	// payload draw; zero means 1e6. It has no effect on breakdown results.
	ReferenceBandwidthBPS float64
}

// PaperGenerator returns the generator configured exactly as in the paper's
// comparison: 100 streams, uniform periods, mean 100 ms, ratio 10.
func PaperGenerator() Generator {
	return Generator{
		Streams:     100,
		MeanPeriod:  100e-3,
		PeriodRatio: 10,
	}
}

// Validate reports the first invalid generator parameter, or nil.
func (g Generator) Validate() error {
	switch {
	case g.Streams <= 0:
		return ErrBadStreamCount
	case g.MeanPeriod <= 0:
		return ErrBadMeanPeriod
	case g.PeriodRatio < 1:
		return ErrBadRatio
	}
	return nil
}

// PeriodBounds returns [Pmin, Pmax] such that (Pmin+Pmax)/2 == MeanPeriod
// and Pmax/Pmin == PeriodRatio.
func (g Generator) PeriodBounds() (pmin, pmax float64) {
	pmin = 2 * g.MeanPeriod / (1 + g.PeriodRatio)
	pmax = pmin * g.PeriodRatio
	return pmin, pmax
}

// Draw generates one random message set. The same rng state always yields
// the same set, making experiments reproducible.
func (g Generator) Draw(rng *rand.Rand) (Set, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, ErrNilRand
	}
	refBW := g.ReferenceBandwidthBPS
	if refBW == 0 {
		refBW = 1e6
	}
	pmin, pmax := g.PeriodBounds()
	set := make(Set, g.Streams)
	for i := range set {
		var period float64
		switch g.Periods {
		case PeriodsLogUniform:
			period = pmin * math.Exp(rng.Float64()*math.Log(pmax/pmin))
		case PeriodsEqual:
			period = g.MeanPeriod
		case PeriodsHarmonic:
			// Powers of two inside [pmin, pmax]: k ∈ 0..⌊log2(ratio)⌋.
			kmax := int(math.Floor(math.Log2(pmax / pmin)))
			period = pmin * math.Pow(2, float64(rng.Intn(kmax+1)))
		default: // PeriodsUniform and zero value
			period = pmin + rng.Float64()*(pmax-pmin)
		}
		// Draw a strictly positive fraction to keep lengths valid.
		frac := 1 - rng.Float64() // in (0, 1]
		var bits float64
		switch g.Lengths {
		case LengthsUniform:
			bits = frac * g.MeanPeriod * refBW
		case LengthsEqual:
			bits = 0.5 * g.MeanPeriod * refBW
		default: // LengthsProportional and zero value
			bits = frac * period * refBW
		}
		set[i] = Stream{
			Name:       streamName(i),
			Period:     period,
			LengthBits: bits,
		}
	}
	return set, nil
}

// streamNames holds the names Draw gives the first streams of a set, S1
// to S256, so drawing a set of the paper's size allocates no name.
var streamNames = func() []string {
	out := make([]string, 256)
	for i := range out {
		out[i] = fmt.Sprintf("S%d", i+1)
	}
	return out
}()

// streamName is the name of a drawn set's stream i: "S" and i+1.
func streamName(i int) string {
	if i < len(streamNames) {
		return streamNames[i]
	}
	return fmt.Sprintf("S%d", i+1)
}
