package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// workload drives the program in-process. The harness generates nothing
// itself: it times set-up, asks for each block's inputs before the block
// starts, and runs the block's ops back to back on one goroutine.
type workload interface {
	// setup builds the program state the ops run against. It is timed and
	// repeated; the state of the last call is the one the run uses.
	setup() error
	// prepare generates the inputs of block b's ops from the seed.
	prepare(b int)
	// op runs op j of the current block. The workload brackets the
	// program call with c, checks every output after c stops, and
	// returns a failed or wrong op as an error.
	op(j int, c *clock) error
	// finish runs the end-of-run checks.
	finish() []error
}

// env is what a workload shares with the harness.
type env struct {
	seed     int64
	perBlock int
	tr       *tracer // non-nil inside traced blocks only
	led      *ledger
	corrupt  bool // self-test: corrupt one expectation
}

// blockRand is the input stream of block b (stream 0 is reserved for
// inputs generated once per run).
func (e *env) blockRand(b int) *rand.Rand { return e.rand(int64(b) + 1) }

func (e *env) rand(stream int64) *rand.Rand {
	const golden = int64(-7046029254386353131) // 0x9E3779B97F4A7C15
	return rand.New(rand.NewSource(e.seed*golden ^ (stream+1)*0x5DEECE66D))
}

// clock times one op's program call.
type clock struct {
	t0 time.Time
	d  time.Duration
}

func (c *clock) start() { c.t0 = time.Now() }
func (c *clock) stop()  { c.d = time.Since(c.t0) }

// spec describes one workload; why each exists is in its file and in
// README.md.
type spec struct {
	name string
	// perBlock is the op count of a block: about half a second of work on
	// the reference host, long enough that GC cycles land in every block.
	perBlock int
	make     func(e *env) (workload, error)
}

var workloads = []spec{
	{"analyze-mix", 2500, newAnalyzeMix},
	{"ring-admit", 12000, newRingAdmit},
	{"fig1-sweep", 48, newFig1Sweep},
	{"token-sim", 20, newTokenSim},
}

func lookup(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	corrupt   bool
	ledgerDir string // "" disables the exact-count ledger
	spansDir  string // "" disables the span dump
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	errs              []string

	metrics map[string]float64 // reported values (calibrated timings)
	raw     map[string]float64 // the same timings uncalibrated
	info    map[string]any     // printed beside the metrics
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

const (
	minSetupReps = 7
	maxSetupReps = 5001
	setupBudget  = 500 * time.Millisecond
	dumpOps      = 200
)

// run executes one benchmark run.
func run(cfg config) (*outcome, error) {
	sp, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, perBlock: sp.perBlock, led: newLedger(), corrupt: cfg.corrupt}
	w, err := sp.make(e)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", sp.name, err)
	}
	w.prepare(0)
	runtime.GC()

	// Set-up, repeated; the median of the repeats is reported. Each repeat
	// is calibrated by the two samples around it, so one slow sample moves
	// only the repeats next to it, which the median then ignores. Each
	// starts from a collected heap, so the repeats' garbage neither slows
	// the next one nor sets the run's peak RSS.
	var k calibrator
	k.sample()
	var reps, setupCal []float64
	var after []int // index of the sample taken before each repeat
	for t0 := time.Now(); len(reps) < minSetupReps || (len(reps) < maxSetupReps && time.Since(t0) < setupBudget); {
		runtime.GC()
		s := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		reps = append(reps, time.Since(s).Seconds())
		after = append(after, len(k.seg)-1)
		k.maybe()
	}
	k.sample()
	for i, r := range reps {
		g := after[i]
		setupCal = append(setupCal, r*calibrationFactor(calRefMs, (k.seg[g]+k.seg[g+1])/2))
	}
	setupRSS := peakRSSMiB()
	runtime.GC()

	o := &outcome{metrics: map[string]float64{}, raw: map[string]float64{}, info: map[string]any{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(dumpOps)
	}
	plain, traced := newBlockSet(), newBlockSet()

	cpu0, cpuOK := readCPUTimes()
	k = calibrator{}
	k.sample()
	lat := make([]float64, sp.perBlock)
	var c clock
	start := time.Now()
	for b := 0; ; b++ {
		isTraced := cfg.trace && b%2 == 1
		set := plain
		e.tr = nil
		if isTraced {
			set, e.tr = traced, tr
		}
		for j := range lat {
			c = clock{}
			if isTraced {
				tr.beginOp(b*sp.perBlock + j)
			}
			err := w.op(j, &c)
			if isTraced {
				tr.endOp()
			}
			o.attempted++
			if err != nil {
				o.fail("block %d op %d: %v", b, j, err)
			}
			lat[j] = float64(c.d)
			k.maybe()
		}
		e.led.endBlock()
		f := k.end()
		if isTraced {
			tr.endBlock(f)
		}
		set.add(lat, f)
		if time.Since(start).Seconds() >= cfg.seconds && (!cfg.trace || b >= 1) {
			break
		}
		w.prepare(b + 1)
	}
	elapsed := time.Since(start)
	e.tr = nil
	for _, err := range w.finish() {
		o.fail("end of run: %v", err)
	}
	steal := 0.0
	if cpu1, ok := readCPUTimes(); ok && cpuOK {
		steal = stealShare(cpu0, cpu1)
	}

	if cfg.ledgerDir != "" && !cfg.corrupt {
		exe, err := exeDigest()
		if err != nil {
			return nil, err
		}
		mode := "t0"
		if cfg.trace {
			mode = "t1"
		}
		chk, err := e.led.reconcile(filepath.Join(cfg.ledgerDir, exe), sp.name, cfg.seed, mode)
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		for _, b := range chk.badBlocks {
			o.failed += sp.perBlock
			o.errs = append(o.errs, fmt.Sprintf("block %d: exact counts differ from an earlier run of seed %d", b, cfg.seed))
		}
		for _, s := range chk.sameSeeds {
			o.fail("seed %d generated the same corpus as seed %s", cfg.seed, s)
		}
	}

	calMs := median(k.all)
	o.info["calibration_ms"] = calMs
	o.info["calibration_ms_range"] = []float64{slices.Min(k.all), slices.Max(k.all)}
	o.info["calibration_samples"] = len(k.all)
	o.info["calibration_ref_ms"] = calRefMs
	o.info["host_steal_share"] = steal
	o.info["blocks"] = len(plain.ops) + len(traced.ops)
	o.info["ops_per_block"] = sp.perBlock
	o.info["measured_s"] = elapsed.Seconds()
	o.info["setup_reps"] = len(reps)
	o.info["peak_rss_after_setup_mb"] = setupRSS
	o.info["error_rate"] = float64(o.failed) / float64(o.attempted)

	if !cfg.trace {
		o.metrics["setup_s"], o.raw["setup_s"] = median(setupCal), median(reps)
		plain.report(o)
		o.metrics["peak_rss_mb"] = peakRSSMiB()
		return o, nil
	}

	tracedP50, _ := traced.cal.quantile(0.5)
	plainP50, _ := plain.cal.quantile(0.5)
	for _, m := range perLayer {
		switch m.kind {
		case kindTime:
			o.metrics[m.name] = median(tr.cal[m.name])
			o.raw[m.name] = median(tr.raw[m.name])
			o.info["samples."+m.name] = len(tr.cal[m.name])
		case kindMean:
			if s := tr.sums[m.name]; s != nil {
				o.metrics[m.name] = s[0] / s[1]
			} else {
				o.metrics[m.name] = 0
			}
		case kindValue:
			o.metrics[m.name] = median(tr.values[m.name])
		}
	}
	o.metrics["bench.calibration_ms"] = calMs
	o.metrics["bench.tracing_overhead"] = tracedP50 / plainP50
	o.metrics["host.steal_share"] = steal
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-%d.jsonl", sp.name, cfg.seed))
		if err := tr.writeDump(path); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
		o.info["spans_file"] = path
	}
	return o, nil
}

// calibrator samples the calibration kernel at the start of a segment (the
// set-up or a block of ops), about every calEvery while it runs, and at its
// end. The segment's factor uses the mean of those samples: host
// slowdowns the program meets during the segment — steal, a busy sibling
// thread, cache contention — show in the samples in proportion to the
// time they last. The closing sample also opens the next segment.
type calibrator struct {
	next time.Time
	seg  []float64 // samples of the open segment, in ms
	all  []float64
}

const calEvery = 100 * time.Millisecond

func (k *calibrator) sample() {
	ms := float64(kernelOnce()) / 1e6
	k.seg = append(k.seg, ms)
	k.all = append(k.all, ms)
	k.next = time.Now().Add(calEvery)
}

// maybe samples if calEvery has passed since the last sample.
func (k *calibrator) maybe() {
	if time.Now().After(k.next) {
		k.sample()
	}
}

// end closes the segment and returns its calibration factor.
func (k *calibrator) end() float64 {
	k.sample()
	f := calibrationFactor(calRefMs, mean(k.seg))
	k.seg = append(k.seg[:0], k.seg[len(k.seg)-1])
	return f
}

// blockSet accumulates the blocks of one kind (untraced or traced).
type blockSet struct {
	ops                      []int
	calSum, rawSum           []float64 // seconds of op latency per block
	p50, p90, rawP50, rawP90 []float64 // per-block quantiles, ns
	cal, raw                 *histogram
	sorted                   []float64
}

func newBlockSet() *blockSet { return &blockSet{cal: newHistogram(), raw: newHistogram()} }

// add records one block's raw op latencies (ns) and its factor.
func (s *blockSet) add(lat []float64, f float64) {
	var calSum, rawSum float64
	for _, ns := range lat {
		s.cal.add(ns * f)
		s.raw.add(ns)
		calSum += ns * f / 1e9
		rawSum += ns / 1e9
	}
	s.ops = append(s.ops, len(lat))
	s.calSum = append(s.calSum, calSum)
	s.rawSum = append(s.rawSum, rawSum)
	s.sorted = append(s.sorted[:0], lat...)
	slices.Sort(s.sorted)
	p50, p90 := s.sorted[rank(0.5, len(lat))-1], s.sorted[rank(0.9, len(lat))-1]
	s.p50, s.p90 = append(s.p50, p50*f), append(s.p90, p90*f)
	s.rawP50, s.rawP90 = append(s.rawP50, p50), append(s.rawP90, p90)
}

// report sets the end-to-end throughput and latency metrics: each is the
// median over blocks, so a block the host slowed as a whole moves none of
// them. The pooled percentiles, p99 and sample counts go beside them.
func (s *blockSet) report(o *outcome) {
	o.metrics["throughput_per_s"] = blockThroughput(s.ops, s.calSum)
	o.raw["throughput_per_s"] = blockThroughput(s.ops, s.rawSum)
	o.metrics["latency_p50_ms"], o.raw["latency_p50_ms"] = median(s.p50)/1e6, median(s.rawP50)/1e6
	o.metrics["latency_p90_ms"], o.raw["latency_p90_ms"] = median(s.p90)/1e6, median(s.rawP90)/1e6
	for _, q := range []struct {
		name string
		p    float64
	}{{"pooled_p50_ms", 0.5}, {"pooled_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
		v, beyond := s.cal.quantile(q.p)
		rv, _ := s.raw.quantile(q.p)
		o.info[q.name], o.info[q.name+"_raw"], o.info[q.name+"_beyond"] = v/1e6, rv/1e6, beyond
	}
	o.info["latency_samples"] = s.cal.n
}
