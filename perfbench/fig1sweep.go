package main

import (
	"fmt"
	"math"
	"math/rand"

	"ringsched"
)

// fig1-sweep: one op is one Monte Carlo sample of Figure 1 — draw a
// 100-stream set and saturate it under modified 802.5, IEEE 802.5 and
// FDDI at every bandwidth of the grid. breakdown → core probes →
// rma.Workspace, with no service code on the path.

const (
	fig1PointsPerDecade = 3
	// fig1PastTol scales a saturation past the search's relative
	// tolerance (1e-6): the analyzer must reject the set there.
	fig1PastTol = 1 + 2e-6
	// fig1MinSamples is the sample count from which a run's per-point
	// means are held to the orderings the FIG1/CLAIM-* experiments assert.
	fig1MinSamples = 30
)

var (
	fig1Protocols = [3]string{"modified-802.5", "standard-802.5", "fddi"}
	fig1SatSpan   = [3]string{"breakdown.saturate_mod", "breakdown.saturate_std", "breakdown.saturate_ttp"}
	fig1SatMetric = [3]string{"breakdown.saturate_mod_us", "breakdown.saturate_std_us", "breakdown.saturate_ttp_us"}
)

type fig1Sweep struct {
	e         *env
	bws       []float64
	gen       ringsched.Generator
	analyzers [][3]ringsched.BatchAnalyzer
	warm      ringsched.MessageSet
	seeds     []int64
	src       rand.Source
	rng       *rand.Rand
	sats      [][3]ringsched.Saturation
	count     countingAnalyzer

	ops        int
	sum, sumSq [][3]float64 // per point utilization sums, for the orderings
}

func newFig1Sweep(e *env) (workload, error) {
	f := &fig1Sweep{e: e, bws: ringsched.PaperBandwidths(fig1PointsPerDecade), gen: ringsched.PaperGenerator()}
	f.src = rand.NewSource(1)
	f.rng = rand.New(f.src)
	var err error
	if f.warm, err = f.gen.Draw(e.rand(0)); err != nil {
		return nil, err
	}
	f.sats = make([][3]ringsched.Saturation, len(f.bws))
	f.sum = make([][3]float64, len(f.bws))
	f.sumSq = make([][3]float64, len(f.bws))
	return f, nil
}

// setup builds the 30 analyzers and binds each one's pooled probe once.
func (f *fig1Sweep) setup() error {
	f.analyzers = f.analyzers[:0]
	for _, bw := range f.bws {
		as := [3]ringsched.BatchAnalyzer{ringsched.NewModifiedPDP(bw), ringsched.NewStandardPDP(bw), ringsched.NewTTP(bw)}
		for _, a := range as {
			_, release, err := a.NewProbe(f.warm)
			if err != nil {
				return err
			}
			release()
		}
		f.analyzers = append(f.analyzers, as)
	}
	return nil
}

func (f *fig1Sweep) prepare(b int) {
	rng := f.e.blockRand(b)
	f.seeds = f.seeds[:0]
	for j := 0; j < f.e.perBlock; j++ {
		s := rng.Int63()
		f.seeds = append(f.seeds, s)
		if b == 0 {
			f.e.led.input(uint64(s))
		}
	}
}

func (f *fig1Sweep) op(j int, c *clock) error {
	tr := f.e.tr
	f.src.Seed(f.seeds[j])
	f.count.tr = tr
	c.start()
	s := tr.begin("message.draw")
	set, err := f.gen.Draw(f.rng)
	tr.time("message.draw_us", tr.end(s), 1e3)
	if err != nil {
		c.stop()
		return err
	}
	for i, bw := range f.bws {
		for k, a := range f.analyzers[i] {
			var an ringsched.Analyzer = a
			if tr != nil {
				f.count.inner, f.count.probe.n = a, 0
				an = &f.count
			}
			m0 := tr.mallocs()
			s := tr.begin(fig1SatSpan[k])
			sat, err := ringsched.Saturate(set, an, bw, ringsched.SaturateOptions{})
			d := tr.end(s)
			if tr != nil {
				tr.mean("breakdown.allocs_per_saturation", float64(tr.mallocs()-m0))
				tr.time(fig1SatMetric[k], d, 1e3)
				tr.time("breakdown.self_us", tr.self(s), 1e3)
				tr.mean("core.probes_per_saturation", float64(f.count.probe.n))
				f.e.led.note(uint64(f.count.probe.n))
			}
			if err != nil {
				c.stop()
				return fmt.Errorf("%s at %g Mbps: %w", fig1Protocols[k], bw/1e6, err)
			}
			f.sats[i][k] = sat
		}
	}
	c.stop()
	return f.check(set)
}

// check holds every feasible saturation to the analyzer's per-call
// verdict: schedulable at its scale, unschedulable just past the search
// tolerance. Infeasible saturations count as utilization 0, as the
// estimator counts them.
func (f *fig1Sweep) check(set ringsched.MessageSet) error {
	first := f.ops == 0
	f.ops++
	for i, bw := range f.bws {
		for k, a := range f.analyzers[i] {
			sat := f.sats[i][k]
			f.e.led.note(math.Float64bits(sat.Scale))
			f.e.led.note(uint64(b2f(sat.Feasible)))
			u := 0.0
			if sat.Feasible {
				u = sat.Utilization
				want := !(f.e.corrupt && first)
				first = false
				ok, err := a.Schedulable(sat.Set)
				if err != nil {
					return err
				}
				past, err := a.Schedulable(set.Scale(sat.Scale * fig1PastTol))
				if err != nil {
					return err
				}
				if ok != want || past {
					return fmt.Errorf("%s at %g Mbps: saturation %g: schedulable there %v, just past it %v",
						fig1Protocols[k], bw/1e6, sat.Scale, ok, past)
				}
			}
			f.sum[i][k] += u
			f.sumSq[i][k] += u * u
		}
	}
	return nil
}

// finish holds the run's per-point means to the orderings the FIG1 and
// CLAIM-* experiments assert: modified ≥ standard everywhere (within the
// 95 % intervals), FDDI ahead of PDP from 100 Mbps, PDP ahead of FDDI on
// at least three of the four points up to 10 Mbps.
func (f *fig1Sweep) finish() []error {
	n := float64(f.ops)
	if f.ops < fig1MinSamples {
		return nil
	}
	mean := func(i, k int) float64 { return f.sum[i][k] / n }
	ci := func(i, k int) float64 {
		v := (f.sumSq[i][k] - n*mean(i, k)*mean(i, k)) / (n - 1)
		return 1.96 * math.Sqrt(math.Max(v, 0)/n)
	}
	var errs []error
	lowWins, low := 0, 0
	for i, bw := range f.bws {
		mod, std, fddi := mean(i, 0), mean(i, 1), mean(i, 2)
		if mod < std-(ci(i, 0)+ci(i, 1)) {
			errs = append(errs, fmt.Errorf("standard 802.5 beat modified at %g Mbps (%.4f vs %.4f)", bw/1e6, std, mod))
		}
		if bw >= 100e6*(1-1e-9) && fddi <= mod {
			errs = append(errs, fmt.Errorf("PDP beat FDDI at %g Mbps (%.4f vs %.4f)", bw/1e6, mod, fddi))
		}
		if bw <= 10e6*(1+1e-9) {
			low++
			if mod >= fddi {
				lowWins++
			}
		}
	}
	if lowWins < low-1 {
		errs = append(errs, fmt.Errorf("PDP ahead of FDDI at only %d of %d points up to 10 Mbps", lowWins, low))
	}
	return errs
}

// countingAnalyzer wraps an analyzer's pooled probe to count and time
// probes. It implements ringsched.BatchAnalyzer, so Saturate takes the
// same fast path as with the bare analyzer, and it allocates nothing.
type countingAnalyzer struct {
	inner ringsched.BatchAnalyzer
	probe countingProbe
	tr    *tracer
}

func (c *countingAnalyzer) Name() string { return c.inner.Name() }

func (c *countingAnalyzer) Schedulable(m ringsched.MessageSet) (bool, error) {
	return c.inner.Schedulable(m)
}

func (c *countingAnalyzer) NewProbe(m ringsched.MessageSet) (ringsched.Probe, func(), error) {
	p, release, err := c.inner.NewProbe(m)
	if err != nil {
		return nil, nil, err
	}
	c.probe.inner, c.probe.tr = p, c.tr
	return &c.probe, release, nil
}

type countingProbe struct {
	inner ringsched.Probe
	tr    *tracer
	n     int
}

func (p *countingProbe) Schedulable(scale float64) (bool, error) {
	s := p.tr.begin("core.probe")
	ok, err := p.inner.Schedulable(scale)
	p.tr.time("core.probe_us", p.tr.end(s), 1e3)
	p.n++
	return ok, err
}
