package tokensim

import (
	"context"
	"fmt"
	"math"

	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
	"ringsched/internal/stats"
	"ringsched/internal/trace"
)

// ringConfig is the part of a simulator configuration every MAC shares:
// PDPSim, TTPSim and ReservationSim each declare these fields, and the
// harness validates them and builds a run from them. PDPSim and
// ReservationSim use one frame format for both sync and async.
type ringConfig struct {
	// protocol is the Result.Protocol label.
	protocol    string
	net         ring.Config
	sync, async frame.Spec
	workload    Workload
	horizon     float64
	faults      *Faults
	tracer      Tracer
}

// validate checks the shared configuration and resolves the horizon.
func (c ringConfig) validate() (float64, error) {
	if err := c.net.Validate(); err != nil {
		return 0, err
	}
	if err := c.sync.Validate(); err != nil {
		return 0, err
	}
	if err := c.async.Validate(); err != nil {
		return 0, err
	}
	if err := c.workload.validate(c.net.Stations); err != nil {
		return 0, err
	}
	if err := c.faults.Validate(); err != nil {
		return 0, err
	}
	return resolveHorizon(c.horizon, c.workload.Streams)
}

// resolveHorizon gives a zero horizon the default length for the streams
// m (20 periods of the slowest) and checks that the result is positive
// and finite, and fine enough for every period: a release time within the
// horizon must move when a period is added to it, or stationState.release
// would add it for ever.
func resolveHorizon(h float64, m message.Set) (float64, error) {
	if h == 0 {
		h = horizonFor(m, 20)
	}
	if !(h > 0) || math.IsInf(h, 1) {
		return 0, ErrBadHorizon
	}
	for _, s := range m {
		if !advances(h, s.Period) {
			return 0, fmt.Errorf("%w: %g s is too long to count stream %s's %g s periods in float64",
				ErrBadHorizon, h, s.Name, s.Period)
		}
	}
	return h, nil
}

// advances reports whether adding step to, or subtracting it from, any
// float64 in [0, limit] changes it. It holds when step exceeds half the
// gap between limit and the next float64, the widest gap in the range;
// otherwise some value rounds back to itself, as limit + step == limit
// at the extreme.
func advances(limit, step float64) bool {
	return step > (math.Nextafter(limit, math.Inf(1))-limit)/2
}

// harness is the run plumbing every MAC shares. pdpRun, ttpRun and resRun
// embed it by value and add only their arbitration: who transmits next,
// for how long, and where the token goes. The harness owns the engine,
// the plant constants, the fault injector, the synchronous stations and
// the medium accounting; it implements the steps the MACs have in common
// (the bypass pause, token-loss recovery, frame corruption and message
// completion), the standalone run loop, and the hooks TopologySim
// composes rings through.
type harness struct {
	// engine runs the events: own for a standalone run, so that the run
	// and its engine are one allocation, or a topology's shared engine.
	engine *sim.Engine
	own    sim.Engine

	protocol string
	plant    plant
	horizon  float64
	tracer   Tracer
	// inj is the fault injector for this run; nil on a healthy ring, in
	// which case no fault branch ever fires.
	inj *faults.Injector

	// syncs holds the synchronous state of stations 0..len(streams)-1,
	// the stations that carry streams.
	syncs []*stationState

	// The indexes of the MACs that pick among pending stations (built by
	// arbitrate; TTP leaves them nil). rank[i] is station i's
	// rate-monotonic rank — its place in the order by period, ties by
	// station index — and byRank its inverse. pending holds the ranks of
	// the stations with a queued message. arrivals is a min-heap of the
	// stations' next release times and nextDue the least of them; due
	// and dueSet are releaseArrivals' scratch.
	rank, byRank, due []int32
	pending, dueSet   rankSet
	arrivals          []arrival
	nextDue           float64

	// kick is the service handler of a MAC that sleeps while no frame is
	// pending (PDP). Token-passing MACs leave it nil: their circulating
	// token finds a new message on its next visit. idle reports that the
	// MAC sleeps, and idleWake is its pending wake-up (the zero Event when
	// that lies past the horizon), which inject pulls forward to serve a
	// bridged hand-off at once.
	kick     sim.Handler
	idle     bool
	idleWake sim.Event
	// onDone, when non-nil, observes every completed message: the hook a
	// topology hands messages to the next ring through.
	onDone func(msg pendingMessage, at float64)

	syncTime  float64
	asyncTime float64
	tokenTime float64
	// rotation summarizes token rotations (TTP), token passes (PDP) or
	// inter-service gaps (reservation).
	rotation  stats.Running
	losses    int
	recovery  float64
	corrupted int
}

// setup builds the run state of a validated configuration on engine, or
// on the run's own engine when engine is nil.
func (h *harness) setup(c ringConfig, horizon float64, engine *sim.Engine) {
	h.engine = engine
	if engine == nil {
		h.engine = &h.own
	}
	h.protocol, h.horizon, h.tracer = c.protocol, horizon, c.tracer
	h.plant = newPlant(c.net, c.sync, c.async)
	h.inj = c.faults.Injector(c.net.Stations, h.plant.theta, horizon)
	states := make([]stationState, len(c.workload.Streams))
	h.syncs = make([]*stationState, len(states))
	for i, s := range c.workload.Streams {
		states[i] = stationState{stream: s, nextArrival: c.workload.Offsets[i]}
		h.syncs[i] = &states[i]
	}
}

// run drives a standalone run to its horizon under sp and collects it. It
// records the span attributes every simulator carries; the MAC adds its
// own.
func (h *harness) run(ctx context.Context, sp *trace.Span, maxEvents int, obs progress.Progress) (Result, error) {
	sp.SetAttr("stations", h.plant.n)
	sp.SetAttr("horizonSec", h.horizon)
	if err := runEngine(ctx, sp, h.engine, h.horizon, maxEvents, obs); err != nil {
		return Result{}, err
	}
	res := h.collect()
	sp.SetAttr("misses", res.DeadlineMisses)
	return res, nil
}

// runEngine drives eng to the horizon under the MaxEvents guard and the
// progress observer, and records the events fired (and any error) on sp.
func runEngine(ctx context.Context, sp *trace.Span, eng *sim.Engine, horizon float64, maxEvents int, obs progress.Progress) error {
	opts := sim.RunOptions{MaxEvents: maxEvents}
	if obs != nil {
		opts.OnAdvance = func(fired int, now float64) { obs.SimulatorAdvanced(fired, now) }
	}
	err := eng.RunUntilContext(ctx, horizon, opts)
	sp.SetAttr("events", eng.Fired())
	sp.SetError(err)
	return err
}

// collect summarizes the run after the event loop has drained.
func (h *harness) collect() Result {
	stationResults, misses := collectStations(h.syncs, h.horizon)
	res := Result{
		Protocol:        h.protocol,
		Horizon:         h.horizon,
		Stations:        stationResults,
		DeadlineMisses:  misses,
		SyncTime:        h.syncTime,
		AsyncTime:       h.asyncTime,
		TokenTime:       h.tokenTime,
		RotationMean:    h.rotation.Mean(),
		RotationMax:     h.rotation.Max(),
		RotationN:       h.rotation.N(),
		TokenLosses:     h.losses,
		RecoveryTime:    h.recovery,
		CorruptedFrames: h.corrupted,
		Crashes:         h.inj.CrashCount(),
	}
	res.IdleTime = math.Max(0, h.horizon-res.SyncTime-res.AsyncTime-res.TokenTime-res.RecoveryTime)
	return res
}

// release releases station idx's messages due by now, tracing each.
func (h *harness) release(idx int, now float64) {
	st := h.syncs[idx]
	empty := len(st.queue) == 0
	st.release(now, func(msg pendingMessage) {
		emit(h.tracer, TraceEvent{Time: msg.arrival, Kind: TraceArrival, Station: idx})
	})
	if empty && len(st.queue) > 0 {
		h.queued(idx)
	}
}

// schedule schedules fn at time t, unless t lies past the horizon, where
// it would never fire. The only failure mode of At is an invalid or past
// time, impossible for the times the MACs compute.
func (h *harness) schedule(t float64, fn sim.Handler) sim.Event {
	if t > h.horizon {
		return sim.Event{}
	}
	ev, _ := h.engine.At(t, fn)
	return ev
}

// sleep idles a sleeping MAC until at.
func (h *harness) sleep(at float64) {
	h.idle, h.idleWake = true, h.schedule(at, h.kick)
}

// inject delivers an externally arrived message — a bridged hand-off from
// another ring — to station idx, waking a sleeping MAC to serve it now.
// Local traffic never calls it, so single-ring runs are untouched.
func (h *harness) inject(idx int, msg pendingMessage) {
	st := h.syncs[idx]
	if st.push(msg); len(st.queue) == 1 {
		h.queued(idx)
	}
	emit(h.tracer, TraceEvent{Time: msg.arrival, Kind: TraceArrival, Station: idx})
	if h.idle {
		h.engine.Cancel(h.idleWake)
		h.idle, h.idleWake = false, sim.Event{}
		_, _ = h.engine.At(h.engine.Now(), h.kick)
	}
}

// bypass is ring reconfiguration: every station crash or restart up to
// now pauses the whole ring for the beacon/bypass latency, after which
// resume carries on. It reports whether the ring paused; station labels
// the traced recovery. A healthy ring has no injector, and that check
// inlines into the handlers.
func (h *harness) bypass(now float64, station int, resume sim.Handler) bool {
	return h.inj != nil && h.reconfigure(now, station, resume)
}

// reconfigure is bypass on a ring with an injector.
func (h *harness) reconfigure(now float64, station int, resume sim.Handler) bool {
	bp := h.inj.TakeBypass(now)
	if bp <= 0 {
		return false
	}
	h.recovery += bp
	emit(h.tracer, TraceEvent{Time: now, Kind: TraceRecovery, Station: station, Duration: bp})
	_, _ = h.engine.At(now+bp, resume)
	return true
}

// tokenLoss draws whether the token is lost at station. A lost token is
// rediscovered by the claim/beacon process, during which the medium is
// dead for the returned recovery time, traced as starting at.
func (h *harness) tokenLoss(station int, at float64) (rec float64, lost bool) {
	if h.inj == nil || !h.inj.TokenLost(station) {
		return 0, false
	}
	rec = h.inj.RecoveryDuration()
	h.losses++
	h.recovery += rec
	emit(h.tracer, TraceEvent{Time: at, Kind: TraceRecovery, Station: station, Duration: rec})
	return rec, true
}

// send puts a synchronous frame carrying bits of msg on the medium at at
// for dur. A frame that fails its CRC still held the medium, but its
// payload stays queued for retransmission. send reports whether msg is
// now complete: a clean frame left at most tol of its bits.
func (h *harness) send(station int, at, dur, bits float64, msg *pendingMessage, tol float64) bool {
	if h.inj != nil && h.inj.FrameCorrupted(station) {
		h.corrupted++
		emit(h.tracer, TraceEvent{Time: at, Kind: TraceCorrupt, Station: station, Duration: dur, Detail: bits})
		return false
	}
	msg.remainingBits -= bits
	emit(h.tracer, TraceEvent{Time: at, Kind: TraceFrame, Station: station, Duration: dur, Detail: bits})
	return msg.remainingBits <= tol
}

// finishMessage completes station's head-of-queue message at time at and
// hands it to the topology hook.
func (h *harness) finishMessage(station int, at float64) {
	st := h.syncs[station]
	msg := st.pop()
	if len(st.queue) == 0 {
		h.drained(station)
	}
	lateness := st.finish(msg, at)
	kind := TraceComplete
	if lateness > 0 {
		kind = TraceMiss
	}
	emit(h.tracer, TraceEvent{Time: at, Kind: kind, Station: station, Detail: lateness})
	if h.onDone != nil {
		h.onDone(msg, at)
	}
}
