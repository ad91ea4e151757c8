package tokensim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ringsched/internal/core"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
	"ringsched/internal/trace"
)

// Errors returned by the TTP simulator.
var (
	ErrBadTTRT        = errors.New("tokensim: TTRT must be positive and no longer than the horizon")
	ErrBadAllocations = errors.New("tokensim: one finite, non-negative synchronous allocation per stream required")
)

// maxHoldFrames bounds the asynchronous frames one TTRT may hold. An early
// token's holding time is spent one frame per step inside a single event,
// where MaxEvents cannot stop it, so a visit costs up to TTRT/Fasync
// steps. FDDI's longest TTRT, 165 ms, holds about 2.6·10⁵ of the paper's
// frames (64-byte payload) at 1 Gbps; the bound is four times that, a few
// milliseconds of work.
const maxHoldFrames = 1 << 20

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
	// initialization; positive and no longer than the horizon.
	TTRT float64
	// Allocations holds the synchronous bandwidth h_i of each stream's
	// station, aligned with Workload.Streams; finite and non-negative.
	Allocations []float64
	// Workload supplies the synchronous streams and their phasing.
	Workload Workload
	// AsyncSaturated, when true, keeps every station's asynchronous queue
	// full, so all token earliness is consumed (plus overrun) — the
	// worst-case interference the analysis assumes.
	AsyncSaturated bool
	// Horizon is the simulated duration, finite; zero picks a default (20
	// periods of the slowest stream).
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

// ttpRun is the FDDI timer arbitration of one run on the shared harness.
type ttpRun struct {
	harness
	cfg      TTPSim
	stations []ttpStation
	// at is the station the token is travelling to, and arriveFn is
	// tokenArrive, bound once so that passing the token allocates
	// nothing. The ring has one token event in flight at a time, so
	// tokenArrive reads its station from here.
	at       int
	arriveFn sim.Handler
}

// Run executes the simulation. It is the uncancelable convenience wrapper
// around RunContext.
func (c TTPSim) Run() (Result, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation: the event loop polls ctx
// periodically and aborts with ctx.Err() once it is canceled.
func (c TTPSim) RunContext(ctx context.Context) (Result, error) {
	r, err := newTTPRun(c, nil)
	if err != nil {
		return Result{}, err
	}
	ctx, sp := trace.Start(ctx, "sim.ttp")
	defer sp.End()
	sp.SetAttr("ttrtSec", c.TTRT)
	res, err := r.run(ctx, sp, c.MaxEvents, c.Progress)
	if err == nil {
		sp.SetAttr("rotationMeanSec", res.RotationMean)
	}
	return res, err
}

// newTTPRun validates the configuration and builds its run on engine (nil
// for a standalone run), with the token released at station 0 at time 0
// and all timers fresh.
func newTTPRun(c TTPSim, engine *sim.Engine) (*ttpRun, error) {
	rc := ringConfig{
		protocol: "FDDI", net: c.Net, sync: c.SyncFrame, async: c.AsyncFrame,
		workload: c.Workload, horizon: c.Horizon, faults: c.Faults, tracer: c.Tracer,
	}
	horizon, err := rc.validate()
	if err != nil {
		return nil, err
	}
	// One visit's asynchronous burst lasts at most TTRT, so a TTRT within
	// the horizon bounds each visit's work by the run's own length. The
	// rotation timer counts expiries as elapsed/TTRT, which a TTRT more
	// than MaxFloat64 times shorter than the horizon would overflow.
	if !(c.TTRT > 0) || c.TTRT > horizon || math.IsInf(horizon/c.TTRT, 1) {
		return nil, fmt.Errorf("%w: %g s against a %g s horizon", ErrBadTTRT, c.TTRT, horizon)
	}
	// The holding-time loop spends up to TTRT one asynchronous frame at a
	// time. Within the bound, taking a frame from the time left always
	// changes it, so the loop ends.
	if fa := c.AsyncFrame.Time(c.Net.BandwidthBPS); !(c.TTRT/fa <= maxHoldFrames) {
		return nil, fmt.Errorf("%w: %g s holds more than %d asynchronous frames of %g s",
			ErrBadTTRT, c.TTRT, maxHoldFrames, fa)
	}
	if len(c.Allocations) != len(c.Workload.Streams) {
		return nil, fmt.Errorf("%w: %d allocations for %d streams",
			ErrBadAllocations, len(c.Allocations), len(c.Workload.Streams))
	}
	for i, h := range c.Allocations {
		if !(h >= 0) || math.IsInf(h, 1) {
			return nil, fmt.Errorf("%w: allocation %d is %g s", ErrBadAllocations, i, h)
		}
	}

	r := &ttpRun{cfg: c}
	r.setup(rc, horizon, engine)
	r.stations = make([]ttpStation, c.Net.Stations)
	for i, sync := range r.syncs {
		r.stations[i].sync = sync
		r.stations[i].allocation = c.Allocations[i]
	}
	r.arriveFn = r.tokenArrive
	_, _ = r.engine.At(0, r.arriveFn)
	return r, nil
}

// tokenArrive services station r.at and forwards the token.
func (r *ttpRun) tokenArrive() {
	now, idx := r.engine.Now(), r.at
	st := &r.stations[idx]

	if r.bypass(now, idx, r.arriveFn) {
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
		emit(r.tracer, TraceEvent{
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
		r.release(idx, now)
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
			emit(r.tracer, TraceEvent{
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
	emit(r.tracer, TraceEvent{Time: now + busy, Kind: TraceTokenPass, Station: idx, Duration: hop})
	rec, lost := r.tokenLoss(idx, now+busy+hop)
	if lost {
		r.markLate(now + busy + hop + rec)
	}
	r.at = (idx + 1) % r.cfg.Net.Stations
	r.schedule(now+busy+hop+rec, r.arriveFn)
}

// markLate raises the late-counter suppression flag of every station whose
// rotation timer will have expired by the time recovery completes at
// recoveryEnd.
func (r *ttpRun) markLate(recoveryEnd float64) {
	for i := range r.stations {
		st := &r.stations[i]
		if recoveryEnd-st.timerStart >= r.cfg.TTRT {
			st.suppress = true
			emit(r.tracer, TraceEvent{
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
		// Frames are sized in time, so a message's bits run down with
		// rounding: within 1e-9 bits of the end, it is complete.
		if r.send(idx, now+used-frameTime, frameTime, payloadTime*bw, msg, 1e-9) {
			r.finishMessage(idx, now+used)
		}
	}
	r.syncTime += used
	return used
}
