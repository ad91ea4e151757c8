package tokensim

import (
	"context"
	"math"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
	"ringsched/internal/stats"
	"ringsched/internal/trace"
)

// TokenPassModel selects how the PDP simulator charges token-circulation
// time between consecutive frame transmissions.
type TokenPassModel int

const (
	// PassMeasured charges the geometric walk time from the previous
	// transmitter to the next one (a full rotation when the standard
	// protocol's holder recaptures its own token). This is the physical
	// model; its long-run average over random transmitter positions is
	// the Θ/2 the paper assumes.
	PassMeasured TokenPassModel = iota + 1
	// PassAverageHalfTheta charges exactly the analysis's assumption:
	// Θ/2 per frame for the standard protocol, Θ/2 per message for the
	// modified one. Validation tests use this model to compare the
	// operational behavior against Theorem 4.1 on equal terms.
	PassAverageHalfTheta
)

// String implements fmt.Stringer.
func (m TokenPassModel) String() string {
	switch m {
	case PassMeasured:
		return "measured"
	case PassAverageHalfTheta:
		return "theta/2"
	default:
		return "unknown"
	}
}

// PDPSim simulates the priority driven protocol at frame granularity. The
// service discipline matches the analytical model of Section 4: among
// pending synchronous frames the highest rate-monotonic priority is served
// next; preemption happens only at frame boundaries; each frame occupies
// the medium for its Section 4.3 effective time; and the token physically
// travels hop by hop between consecutive transmitters, so the
// token-circulation overhead the analysis averages as Θ/2 is *measured*
// here rather than assumed.
type PDPSim struct {
	// Net is the ring plant.
	Net ring.Config
	// Frame is the shared frame format.
	Frame frame.Spec
	// Variant selects the standard or modified implementation.
	Variant core.Variant
	// Workload supplies the synchronous streams and their phasing.
	Workload Workload
	// AsyncSaturated, when true, keeps a maximum-length asynchronous frame
	// ready at every station: whenever no synchronous frame is pending,
	// an asynchronous frame seizes the medium and newly arrived
	// synchronous messages must wait for it — the blocking source of
	// Lemma 4.1.
	AsyncSaturated bool
	// Horizon is the simulated duration; zero picks a default long enough
	// for steady state (20 periods of the slowest stream).
	Horizon float64
	// TokenPass selects the token-circulation cost model; zero value
	// means PassMeasured.
	TokenPass TokenPassModel
	// Tracer, when non-nil, observes every simulator event (arrivals,
	// frames, token passes, completions).
	Tracer Tracer
	// Faults, when non-nil, injects token-loss failures.
	Faults *Faults
	// MaxEvents bounds the discrete events fired by one run; 0 means
	// unlimited. Exceeding it aborts with sim.ErrMaxEvents — the runaway
	// guard for degenerate configurations whose event chains never reach
	// the horizon.
	MaxEvents int
	// Progress, when non-nil, observes event-loop advancement (every ~1k
	// events and at the end of the run).
	Progress progress.Progress
}

// pdpRun is the mutable state of one simulation run.
type pdpRun struct {
	cfg      PDPSim
	plant    plant
	engine   *sim.Engine
	stations []*stationState
	tokenPos int
	// idleSince is the time the medium went idle, or NaN while busy.
	idleSince float64
	horizon   float64
	// nextDue is the earliest next arrival over all stations; service
	// skips the release sweep while the clock is below it.
	nextDue float64

	// serviceFn and completeFn are service and complete, bound once so
	// that scheduling them allocates nothing.
	serviceFn, completeFn sim.Handler
	// target is the station whose frame is on the medium, and finished
	// reports that the frame carries its message's last bits. The ring has
	// at most one frame in flight — service schedules exactly one
	// completion, and every other service event is scheduled only while
	// the medium is free — so complete reads them from here.
	target   int
	finished bool

	// idle reports that no service event chain is in flight; idleWake is
	// the pending wake-up (the zero Event when the next arrival lies past
	// the horizon). inject cancels the wake-up to service a bridged
	// hand-off immediately.
	idle     bool
	idleWake sim.Event
	// onDone, when non-nil, observes every completed message — the hook
	// the topology simulator uses to hand messages to the next ring.
	onDone func(station int, msg pendingMessage, at float64)

	syncTime  float64
	asyncTime float64
	tokenTime float64
	passStats stats.Running

	// inj is the fault injector for this run; nil on a healthy ring, in
	// which case no fault branch below ever fires.
	inj       *faults.Injector
	losses    int
	recovery  float64
	corrupted int
}

// Run executes the simulation and returns the per-station outcome. It is
// the uncancelable convenience wrapper around RunContext.
func (c PDPSim) Run() (Result, error) {
	return c.RunContext(context.Background())
}

// runLoopOptions wires a simulator's MaxEvents guard and Progress observer
// into the engine's context-aware run loop.
func runLoopOptions(maxEvents int, obs progress.Progress) sim.RunOptions {
	opts := sim.RunOptions{MaxEvents: maxEvents}
	if obs != nil {
		opts.OnAdvance = func(fired int, now float64) { obs.SimulatorAdvanced(fired, now) }
	}
	return opts
}

// validate checks the configuration and resolves the simulation horizon.
func (c PDPSim) validate() (float64, error) {
	if err := c.Net.Validate(); err != nil {
		return 0, err
	}
	if err := c.Frame.Validate(); err != nil {
		return 0, err
	}
	if c.Variant != core.Standard8025 && c.Variant != core.Modified8025 {
		return 0, core.ErrBadVariant
	}
	if err := c.Workload.Streams.Validate(); err != nil {
		return 0, err
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

// newPDPRun builds the run state on the given engine — the run's own for a
// standalone simulation, a shared one when composed into a topology.
func newPDPRun(c PDPSim, engine *sim.Engine, horizon float64) *pdpRun {
	r := &pdpRun{cfg: c, engine: engine, horizon: horizon, idleSince: 0, nextDue: math.Inf(1)}
	r.plant = newPlant(c.Net, c.Frame, c.Frame)
	r.serviceFn, r.completeFn = r.service, r.complete
	r.inj = c.Faults.Injector(c.Net.Stations, r.plant.theta, horizon)
	r.stations = make([]*stationState, len(c.Workload.Streams))
	for i, s := range c.Workload.Streams {
		r.stations[i] = &stationState{stream: s, nextArrival: c.Workload.Offsets[i]}
		if r.stations[i].nextArrival < r.nextDue {
			r.nextDue = r.stations[i].nextArrival
		}
	}
	return r
}

// start kicks the service loop at the first arrival (or immediately when
// saturated asynchronous traffic keeps the medium busy from time 0).
func (r *pdpRun) start() error {
	start := 0.0
	if !r.cfg.AsyncSaturated {
		start = r.nextDue
	}
	r.idle = true
	if start <= r.horizon {
		ev, err := r.engine.At(start, r.serviceFn)
		if err != nil {
			return err
		}
		r.idleWake = ev
	}
	return nil
}

// collect summarizes the run after the event loop has drained.
func (r *pdpRun) collect() Result {
	stationResults, misses := collectStations(r.stations, r.horizon)
	res := Result{
		Protocol:        r.cfg.Variant.String(),
		Horizon:         r.horizon,
		Stations:        stationResults,
		DeadlineMisses:  misses,
		SyncTime:        r.syncTime,
		AsyncTime:       r.asyncTime,
		TokenTime:       r.tokenTime,
		RotationMean:    r.passStats.Mean(),
		RotationMax:     r.passStats.Max(),
		RotationN:       r.passStats.N(),
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
func (c PDPSim) RunContext(ctx context.Context) (Result, error) {
	horizon, err := c.validate()
	if err != nil {
		return Result{}, err
	}
	r := newPDPRun(c, &sim.Engine{}, horizon)

	ctx, sp := trace.Start(ctx, "sim.pdp")
	defer sp.End()
	sp.SetAttr("variant", c.Variant.String())
	sp.SetAttr("stations", c.Net.Stations)
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
// another ring — to station idx, waking the service loop when the medium
// is idle. Local traffic never calls it, so single-ring runs are
// untouched.
func (r *pdpRun) inject(idx int, msg pendingMessage) {
	r.stations[idx].push(msg)
	emit(r.cfg.Tracer, TraceEvent{Time: msg.arrival, Kind: TraceArrival, Station: idx})
	if r.idle {
		r.engine.Cancel(r.idleWake)
		r.idle, r.idleWake = false, sim.Event{}
		_, _ = r.engine.At(r.engine.Now(), r.serviceFn)
	}
}

// setDone installs the completion hook (topology composition only).
func (r *pdpRun) setDone(fn func(station int, msg pendingMessage, at float64)) {
	r.onDone = fn
}

// setFlow tags station idx's messages with a topology flow index.
func (r *pdpRun) setFlow(idx, flow int) {
	r.stations[idx].flow = flow
}

// highestPriorityPending returns the station index with the highest
// rate-monotonic priority pending frame, or -1. Shorter period wins; ties
// break by station index, matching the deterministic order the analysis
// assumes. Crashed stations cannot transmit; their queues wait.
func (r *pdpRun) highestPriorityPending(now float64) int {
	best := -1
	for i, st := range r.stations {
		if len(st.queue) == 0 || r.inj.Down(i, now) {
			continue
		}
		if best == -1 || st.stream.Period < r.stations[best].stream.Period {
			best = i
		}
	}
	return best
}

// anyPending reports whether any station holds a queued frame (including
// crashed stations whose service must wait for their restart).
func (r *pdpRun) anyPending() bool {
	for _, st := range r.stations {
		if len(st.queue) > 0 {
			return true
		}
	}
	return false
}

// advanceIdleToken rotates the free token for the time the medium sat
// idle, so the next capture pays a realistic partial walk.
func (r *pdpRun) advanceIdleToken(now float64) {
	if math.IsNaN(r.idleSince) {
		return
	}
	if h := r.plant.hop; h > 0 {
		hops := int((now - r.idleSince) / h)
		r.tokenPos = (r.tokenPos + hops) % r.cfg.Net.Stations
	}
	r.idleSince = math.NaN()
}

// service is the single medium process: at each invocation the medium is
// free; it picks the next frame (or asynchronous filler), occupies the
// medium, and reschedules itself at the completion instant.
func (r *pdpRun) service() {
	now := r.engine.Now()
	r.idle, r.idleWake = false, sim.Event{}
	if now >= r.nextDue {
		r.nextDue = releaseAll(r.stations, now, r.cfg.Tracer)
	}

	// Ring reconfiguration: every station crash or restart up to now pauses
	// the whole ring for the beacon/bypass latency before service resumes.
	if bp := r.inj.TakeBypass(now); bp > 0 {
		r.recovery += bp
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceRecovery, Duration: bp})
		_, _ = r.engine.At(now+bp, r.serviceFn)
		return
	}

	target := r.highestPriorityPending(now)
	if target == -1 {
		if r.cfg.AsyncSaturated {
			r.serviceAsync(now)
			return
		}
		// Idle: wake at the next synchronous arrival — or at the next
		// station restart when pending frames sit at crashed stations.
		if math.IsNaN(r.idleSince) {
			r.idleSince = now
		}
		next := r.nextDue
		if r.anyPending() {
			next = math.Min(next, r.inj.NextRestart(now))
		}
		r.idle = true
		if next <= r.horizon {
			// The only failure mode of At is scheduling in the past,
			// impossible for a future arrival.
			r.idleWake, _ = r.engine.At(next, r.serviceFn)
		}
		return
	}

	r.advanceIdleToken(now)
	st := r.stations[target]
	msg := &st.queue[0]

	var pass float64
	if r.cfg.TokenPass == PassAverageHalfTheta {
		// Charge exactly the analysis's average: Θ/2 per frame for the
		// standard protocol, Θ/2 per message (on its first frame) for the
		// modified one.
		switch {
		case r.cfg.Variant == core.Standard8025:
			pass = r.plant.theta / 2
		case msg.remainingBits == st.stream.LengthBits:
			pass = r.plant.theta / 2
		}
	} else {
		// Token travel from the previous transmitter to the target. Under
		// the standard protocol a free token is issued after every frame,
		// so even a back-to-back transmission by the same station pays a
		// full circulation; the modified protocol keeps the token when
		// the holder is still the highest-priority active station.
		hops := hopDistance(r.tokenPos, target, r.cfg.Net.Stations)
		if r.cfg.Variant == core.Standard8025 && hops == 0 && r.passStats.N() > 0 {
			hops = r.cfg.Net.Stations
		}
		pass = float64(hops) * r.plant.hop
	}
	r.tokenTime += pass
	r.passStats.Add(pass)
	r.tokenPos = target
	if pass > 0 {
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceTokenPass, Station: target, Duration: pass})
	}

	// A lost token is rediscovered by the claim/beacon process: the medium
	// is dead for the recovery duration before the frame goes out.
	var rec float64
	if r.inj.TokenLost(target) {
		rec = r.inj.RecoveryDuration()
		r.losses++
		r.recovery += rec
		emit(r.cfg.Tracer, TraceEvent{Time: now + pass, Kind: TraceRecovery, Station: target, Duration: rec})
	}

	payload := min(msg.remainingBits, r.cfg.Frame.InfoBits)
	eff := r.plant.effectiveFrameTime(payload)
	r.syncTime += eff
	corrupted := r.inj.FrameCorrupted(target)
	if corrupted {
		// The frame held the medium but failed its CRC; the payload stays
		// queued and retransmits on the next service.
		r.corrupted++
		emit(r.cfg.Tracer, TraceEvent{
			Time: now + pass + rec, Kind: TraceCorrupt, Station: target, Duration: eff, Detail: payload,
		})
	} else {
		msg.remainingBits -= payload
		emit(r.cfg.Tracer, TraceEvent{
			Time: now + pass + rec, Kind: TraceFrame, Station: target, Duration: eff, Detail: payload,
		})
	}
	r.target, r.finished = target, !corrupted && msg.remainingBits <= 0
	_, _ = r.engine.At(now+pass+rec+eff, r.completeFn)
}

// complete ends the frame on the medium: a frame that carried its
// message's last bits completes the message, then the medium serves the
// next frame.
func (r *pdpRun) complete() {
	if r.finished {
		now := r.engine.Now()
		completed := r.stations[r.target].pop()
		lateness := r.stations[r.target].finish(completed, now)
		kind := TraceComplete
		if lateness > 0 {
			kind = TraceMiss
		}
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: kind, Station: r.target, Detail: lateness})
		if r.onDone != nil {
			r.onDone(r.target, completed, now)
		}
	}
	r.service()
}

// serviceAsync transmits one saturated asynchronous frame. The token moves
// one hop to the next (always-ready) asynchronous sender first.
func (r *pdpRun) serviceAsync(now float64) {
	r.advanceIdleToken(now)
	pass := r.plant.hop
	r.tokenTime += pass
	r.tokenPos = (r.tokenPos + 1) % r.cfg.Net.Stations

	eff := max(r.plant.asyncTime, r.plant.theta)
	r.asyncTime += eff
	emit(r.cfg.Tracer, TraceEvent{
		Time: now + pass, Kind: TraceAsync, Station: r.tokenPos,
		Duration: eff, Detail: r.cfg.Frame.InfoBits,
	})
	_, _ = r.engine.At(now+pass+eff, r.serviceFn)
}
