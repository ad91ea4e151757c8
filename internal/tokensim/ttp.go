package tokensim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
	"ringsched/internal/stats"
	"ringsched/internal/trace"
)

// Errors returned by the TTP simulator.
var (
	ErrBadTTRT        = errors.New("tokensim: TTRT must be positive")
	ErrBadAllocations = errors.New("tokensim: one synchronous allocation per stream required")
)

// TTPSim simulates the timed token protocol with the real FDDI timer
// rules: every station runs a token rotation timer against TTRT; a station
// receiving an early token may send asynchronous traffic for the earliness
// (token holding time), a late token admits synchronous traffic only;
// synchronous transmission is always admitted up to the station's
// allocation h_i; an asynchronous frame in progress always completes
// (asynchronous overrun).
type TTPSim struct {
	// Net is the ring plant.
	Net ring.Config
	// SyncFrame supplies the per-frame overhead added to each synchronous
	// burst.
	SyncFrame frame.Spec
	// AsyncFrame is the (maximum-length) asynchronous frame.
	AsyncFrame frame.Spec
	// TTRT is the target token rotation time negotiated at ring
	// initialization.
	TTRT float64
	// Allocations holds the synchronous bandwidth h_i of each stream's
	// station, aligned with Workload.Streams.
	Allocations []float64
	// Workload supplies the synchronous streams and their phasing.
	Workload Workload
	// AsyncSaturated, when true, keeps every station's asynchronous queue
	// full, so all token earliness is consumed (plus overrun) — the
	// worst-case interference the analysis assumes.
	AsyncSaturated bool
	// Horizon is the simulated duration; zero picks a default (20 periods
	// of the slowest stream).
	Horizon float64
	// Tracer, when non-nil, observes every simulator event (arrivals,
	// frames, async bursts, completions).
	Tracer Tracer
	// Faults, when non-nil, injects token-loss failures.
	Faults *Faults
	// MaxEvents bounds the discrete events fired by one run; 0 means
	// unlimited. Exceeding it aborts with sim.ErrMaxEvents.
	MaxEvents int
	// Progress, when non-nil, observes event-loop advancement.
	Progress progress.Progress
}

// NewTTPSimFromAnalysis builds a simulator whose TTRT and synchronous
// allocations come from the Theorem 5.1 analyzer, so simulation validates
// exactly the configuration the analysis guarantees.
func NewTTPSimFromAnalysis(t core.TTP, m message.Set, w Workload) (TTPSim, error) {
	rep, err := t.Report(m)
	if err != nil {
		return TTPSim{}, err
	}
	alloc := make([]float64, len(rep.Streams))
	for i, sr := range rep.Streams {
		alloc[i] = sr.Allocation
	}
	return TTPSim{
		Net:         t.Net,
		SyncFrame:   t.SyncFrame,
		AsyncFrame:  t.AsyncFrame,
		TTRT:        rep.TTRT,
		Allocations: alloc,
		Workload:    w,
	}, nil
}

// ttpStation is the FDDI timer state of one ring station.
type ttpStation struct {
	// sync is nil for stations without a synchronous stream.
	sync *stationState
	// allocation is h_i (0 for pure asynchronous stations).
	allocation float64
	// timerStart is when the rotation timer last (re)started.
	timerStart float64
	// lastVisit is the previous token arrival, for rotation statistics.
	lastVisit float64
	visited   bool
	// suppress is the FDDI late-counter effect of a claim/beacon recovery:
	// when a recovery makes the token later than TTRT against this
	// station's rotation timer, the station's synchronous allocation is
	// suppressed for its next visit (one rotation), then the flag clears.
	suppress bool
}

// ttpRun is the mutable state of one run.
type ttpRun struct {
	cfg      TTPSim
	plant    plant
	engine   *sim.Engine
	stations []*ttpStation
	horizon  float64
	// arrive[i] is tokenArrive(i), bound once per station so that passing
	// the token allocates nothing.
	arrive []sim.Handler

	// onDone, when non-nil, observes every completed message — the hook
	// the topology simulator uses to hand messages to the next ring.
	onDone func(station int, msg pendingMessage, at float64)

	syncTime  float64
	asyncTime float64
	tokenTime float64
	rotation  stats.Running

	// inj is the fault injector for this run; nil on a healthy ring.
	inj       *faults.Injector
	losses    int
	recovery  float64
	corrupted int
}

// Run executes the simulation. It is the uncancelable convenience wrapper
// around RunContext.
func (c TTPSim) Run() (Result, error) {
	return c.RunContext(context.Background())
}

// validate checks the configuration and resolves the simulation horizon.
func (c TTPSim) validate() (float64, error) {
	if err := c.Net.Validate(); err != nil {
		return 0, err
	}
	if err := c.SyncFrame.Validate(); err != nil {
		return 0, err
	}
	if err := c.AsyncFrame.Validate(); err != nil {
		return 0, err
	}
	if err := c.Workload.Streams.Validate(); err != nil {
		return 0, err
	}
	if c.TTRT <= 0 || math.IsNaN(c.TTRT) {
		return 0, ErrBadTTRT
	}
	if len(c.Allocations) != len(c.Workload.Streams) {
		return 0, fmt.Errorf("%w: %d allocations for %d streams",
			ErrBadAllocations, len(c.Allocations), len(c.Workload.Streams))
	}
	if err := c.Faults.Validate(); err != nil {
		return 0, err
	}
	horizon := c.Horizon
	if horizon == 0 {
		horizon = horizonFor(c.Workload.Streams, 20)
	}
	if horizon <= 0 {
		return 0, ErrBadHorizon
	}
	return horizon, nil
}

// newTTPRun builds the run state on the given engine — the run's own for a
// standalone simulation, a shared one when composed into a topology.
func newTTPRun(c TTPSim, engine *sim.Engine, horizon float64) *ttpRun {
	r := &ttpRun{cfg: c, engine: engine, horizon: horizon}
	r.plant = newPlant(c.Net, c.SyncFrame, c.AsyncFrame)
	r.inj = c.Faults.Injector(c.Net.Stations, r.plant.theta, horizon)
	r.stations = make([]*ttpStation, c.Net.Stations)
	r.arrive = make([]sim.Handler, c.Net.Stations)
	for i := range r.stations {
		r.stations[i] = &ttpStation{}
		r.arrive[i] = func() { r.tokenArrive(i) }
	}
	for i, s := range c.Workload.Streams {
		r.stations[i].sync = &stationState{stream: s, nextArrival: c.Workload.Offsets[i]}
		r.stations[i].allocation = c.Allocations[i]
	}
	return r
}

// start releases the token at station 0 at time 0 with all timers fresh.
func (r *ttpRun) start() error {
	_, err := r.engine.At(0, r.arrive[0])
	return err
}

// collect summarizes the run after the event loop has drained.
func (r *ttpRun) collect() Result {
	syncStates := make([]*stationState, len(r.cfg.Workload.Streams))
	for i := range r.cfg.Workload.Streams {
		syncStates[i] = r.stations[i].sync
	}
	stationResults, misses := collectStations(syncStates, r.horizon)
	res := Result{
		Protocol:        "FDDI",
		Horizon:         r.horizon,
		Stations:        stationResults,
		DeadlineMisses:  misses,
		SyncTime:        r.syncTime,
		AsyncTime:       r.asyncTime,
		TokenTime:       r.tokenTime,
		RotationMean:    r.rotation.Mean(),
		RotationMax:     r.rotation.Max(),
		RotationN:       r.rotation.N(),
		TokenLosses:     r.losses,
		RecoveryTime:    r.recovery,
		CorruptedFrames: r.corrupted,
		Crashes:         r.inj.CrashCount(),
	}
	res.IdleTime = math.Max(0, r.horizon-res.SyncTime-res.AsyncTime-res.TokenTime-res.RecoveryTime)
	return res
}

// RunContext is Run with cancellation: the event loop polls ctx
// periodically and aborts with ctx.Err() once it is canceled.
func (c TTPSim) RunContext(ctx context.Context) (Result, error) {
	horizon, err := c.validate()
	if err != nil {
		return Result{}, err
	}
	r := newTTPRun(c, &sim.Engine{}, horizon)

	ctx, sp := trace.Start(ctx, "sim.ttp")
	defer sp.End()
	sp.SetAttr("stations", c.Net.Stations)
	sp.SetAttr("ttrtSec", c.TTRT)
	sp.SetAttr("horizonSec", horizon)

	if err := r.start(); err != nil {
		sp.SetError(err)
		return Result{}, err
	}
	err = r.engine.RunUntilContext(ctx, horizon, runLoopOptions(c.MaxEvents, c.Progress))
	sp.SetAttr("events", r.engine.Fired())
	if err != nil {
		sp.SetError(err)
		return Result{}, err
	}

	res := r.collect()
	sp.SetAttr("misses", res.DeadlineMisses)
	sp.SetAttr("rotationMeanSec", res.RotationMean)
	return res, nil
}

// inject delivers an externally arrived message — a bridged hand-off from
// another ring — to station idx's synchronous queue. The circulating token
// picks it up on its next visit; no kick is needed.
func (r *ttpRun) inject(idx int, msg pendingMessage) {
	r.stations[idx].sync.push(msg)
	emit(r.cfg.Tracer, TraceEvent{Time: msg.arrival, Kind: TraceArrival, Station: idx})
}

// setDone installs the completion hook (topology composition only).
func (r *ttpRun) setDone(fn func(station int, msg pendingMessage, at float64)) {
	r.onDone = fn
}

// setFlow tags station idx's messages with a topology flow index.
func (r *ttpRun) setFlow(idx, flow int) {
	r.stations[idx].sync.flow = flow
}

// tokenArrive services station idx and forwards the token.
func (r *ttpRun) tokenArrive(idx int) {
	now := r.engine.Now()
	st := r.stations[idx]

	// Ring reconfiguration: crashes and restarts up to now pause the whole
	// ring for the beacon/bypass latency, then the visit resumes.
	if bp := r.inj.TakeBypass(now); bp > 0 {
		r.recovery += bp
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceRecovery, Station: idx, Duration: bp})
		_, _ = r.engine.At(now+bp, r.arrive[idx])
		return
	}

	// A crashed station is bypassed: the token passes straight through,
	// its rotation timer frozen until it rejoins.
	if r.inj.Down(idx, now) {
		r.forwardToken(idx, now, 0)
		return
	}

	// Rotation statistics and the rotation timer.
	if st.visited {
		r.rotation.Add(now - st.lastVisit)
	}
	st.lastVisit = now
	st.visited = true

	elapsed := now - st.timerStart
	var tht float64
	if elapsed < r.cfg.TTRT {
		// Early token: bank the earliness as asynchronous holding time
		// and restart the rotation timer.
		tht = r.cfg.TTRT - elapsed
		st.timerStart = now
	} else {
		// Late token: the rotation timer already expired (at
		// timerStart+TTRT) and restarted; it keeps running from its last
		// expiry, and no asynchronous traffic is admitted this visit.
		expiries := math.Max(1, math.Floor(elapsed/r.cfg.TTRT))
		st.timerStart += expiries * r.cfg.TTRT
		emit(r.cfg.Tracer, TraceEvent{
			Time: now, Kind: TraceLateCount, Station: idx,
			Detail: elapsed - r.cfg.TTRT,
		})
	}

	busy := 0.0

	// Synchronous transmission: always admitted, up to the allocation —
	// unless a claim/beacon recovery made the token late against this
	// station's timer, which suppresses the allocation for one rotation
	// (the FDDI late-counter effect).
	if st.sync != nil {
		st.sync.release(now, func(msg pendingMessage) {
			emit(r.cfg.Tracer, TraceEvent{Time: msg.arrival, Kind: TraceArrival, Station: idx})
		})
		if st.suppress {
			st.suppress = false
		} else {
			busy += r.transmitSync(st, idx, now)
		}
	}

	// Asynchronous transmission: only on an early token, for at most the
	// banked holding time, with one frame of overrun allowed.
	if r.cfg.AsyncSaturated && tht > 0 {
		fa := r.plant.asyncTime
		for tht > 0 {
			r.asyncTime += fa
			emit(r.cfg.Tracer, TraceEvent{
				Time: now + busy, Kind: TraceAsync, Station: idx,
				Duration: fa, Detail: r.cfg.AsyncFrame.InfoBits,
			})
			busy += fa
			tht -= fa
		}
	}

	r.forwardToken(idx, now, busy)
}

// forwardToken moves the token one hop after busy seconds of service. A
// token lost on the hop is rebuilt by the claim/beacon process: the medium
// is dead for the recovery duration and every station whose rotation timer
// the recovery pushes past TTRT has its synchronous allocation suppressed
// for one rotation.
func (r *ttpRun) forwardToken(idx int, now, busy float64) {
	hop := r.plant.hop
	r.tokenTime += hop
	emit(r.cfg.Tracer, TraceEvent{Time: now + busy, Kind: TraceTokenPass, Station: idx, Duration: hop})
	var rec float64
	if r.inj.TokenLost(idx) {
		rec = r.inj.RecoveryDuration()
		r.losses++
		r.recovery += rec
		emit(r.cfg.Tracer, TraceEvent{Time: now + busy + hop, Kind: TraceRecovery, Station: idx, Duration: rec})
		r.markLate(now + busy + hop + rec)
	}
	next := (idx + 1) % r.cfg.Net.Stations
	at := now + busy + hop + rec
	if at <= r.horizon {
		_, _ = r.engine.At(at, r.arrive[next])
	}
}

// markLate raises the late-counter suppression flag of every station whose
// rotation timer will have expired by the time recovery completes at
// recoveryEnd.
func (r *ttpRun) markLate(recoveryEnd float64) {
	for i, st := range r.stations {
		if recoveryEnd-st.timerStart >= r.cfg.TTRT {
			st.suppress = true
			emit(r.cfg.Tracer, TraceEvent{
				Time: recoveryEnd, Kind: TraceLateCount, Station: i,
				Detail: recoveryEnd - st.timerStart - r.cfg.TTRT,
			})
		}
	}
}

// transmitSync sends frames from the station's synchronous queue within
// its allocation and returns the medium time used. Each frame pays the
// per-frame overhead; messages complete when their last payload bit is
// sent.
func (r *ttpRun) transmitSync(st *ttpStation, idx int, now float64) float64 {
	bw, fovhd := r.plant.bw, r.plant.ovhdTime
	budget := st.allocation
	used := 0.0
	for len(st.sync.queue) > 0 && budget > fovhd {
		msg := &st.sync.queue[0]
		payloadTime := min(msg.remainingBits/bw, budget-fovhd)
		frameTime := fovhd + payloadTime
		budget -= frameTime
		used += frameTime
		if r.inj.FrameCorrupted(idx) {
			// The frame spent the budget but failed its CRC; the payload
			// stays queued for retransmission on a later visit.
			r.corrupted++
			emit(r.cfg.Tracer, TraceEvent{
				Time: now + used - frameTime, Kind: TraceCorrupt, Station: idx,
				Duration: frameTime, Detail: payloadTime * bw,
			})
			continue
		}
		emit(r.cfg.Tracer, TraceEvent{
			Time: now + used - frameTime, Kind: TraceFrame, Station: idx,
			Duration: frameTime, Detail: payloadTime * bw,
		})
		msg.remainingBits -= payloadTime * bw
		if msg.remainingBits <= 1e-9 {
			completed := st.sync.pop()
			lateness := st.sync.finish(completed, now+used)
			kind := TraceComplete
			if lateness > 0 {
				kind = TraceMiss
			}
			emit(r.cfg.Tracer, TraceEvent{
				Time: now + used, Kind: kind, Station: idx, Detail: lateness,
			})
			if r.onDone != nil {
				r.onDone(idx, completed, now+used)
			}
		}
	}
	r.syncTime += used
	return used
}
