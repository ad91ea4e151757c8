package tokensim

import (
	"context"
	"math"

	"ringsched/internal/core"
	"ringsched/internal/frame"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
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
	// Horizon is the simulated duration, finite; zero picks a default long
	// enough for steady state (20 periods of the slowest stream).
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

// pdpRun is the PDP arbitration of one run on the shared harness.
type pdpRun struct {
	harness
	cfg      PDPSim
	tokenPos int
	// idleSince is the time the medium went idle, or NaN while busy.
	idleSince float64

	// completeFn is complete and the harness's kick is service, bound
	// once so that scheduling them allocates nothing.
	completeFn sim.Handler
	// target is the station whose frame is on the medium, and finished
	// reports that the frame carries its message's last bits. The ring has
	// at most one frame in flight — service schedules exactly one
	// completion, and every other service event is scheduled only while
	// the medium is free — so complete reads them from here.
	target   int
	finished bool
}

// Run executes the simulation and returns the per-station outcome. It is
// the uncancelable convenience wrapper around RunContext.
func (c PDPSim) Run() (Result, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation: the event loop polls ctx
// periodically and aborts with ctx.Err() once it is canceled.
func (c PDPSim) RunContext(ctx context.Context) (Result, error) {
	r, err := newPDPRun(c, nil)
	if err != nil {
		return Result{}, err
	}
	ctx, sp := trace.Start(ctx, "sim.pdp")
	defer sp.End()
	sp.SetAttr("variant", c.Variant.String())
	res, err := r.run(ctx, sp, c.MaxEvents, c.Progress)
	if err == nil {
		sp.SetAttr("rotationMeanSec", res.RotationMean)
	}
	return res, err
}

// newPDPRun validates the configuration and builds its run on engine (nil
// for a standalone run), asleep until the first arrival — or serving from
// time 0 when saturated asynchronous traffic keeps the medium busy.
func newPDPRun(c PDPSim, engine *sim.Engine) (*pdpRun, error) {
	if c.Variant != core.Standard8025 && c.Variant != core.Modified8025 {
		return nil, core.ErrBadVariant
	}
	rc := ringConfig{
		protocol: c.Variant.String(), net: c.Net, sync: c.Frame, async: c.Frame,
		workload: c.Workload, horizon: c.Horizon, faults: c.Faults, tracer: c.Tracer,
	}
	horizon, err := rc.validate()
	if err != nil {
		return nil, err
	}
	r := &pdpRun{cfg: c}
	r.setup(rc, horizon, engine)
	r.arbitrate()
	r.kick, r.completeFn = r.service, r.complete
	start := 0.0
	if !c.AsyncSaturated {
		start = r.nextDue
	}
	r.sleep(start)
	return r, nil
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
	r.releaseDue(now)
	if r.bypass(now, 0, r.kick) {
		return
	}

	target := r.firstUp(now)
	if target == -1 {
		if r.cfg.AsyncSaturated {
			r.serviceAsync(now)
			return
		}
		// Idle: sleep until the next synchronous arrival — or until the
		// next station restart when pending frames sit at crashed stations.
		if math.IsNaN(r.idleSince) {
			r.idleSince = now
		}
		next := r.nextDue
		if r.pending.size > 0 {
			next = math.Min(next, r.inj.NextRestart(now))
		}
		r.sleep(next)
		return
	}

	r.advanceIdleToken(now)
	st := r.syncs[target]
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
		if r.cfg.Variant == core.Standard8025 && hops == 0 && r.rotation.N() > 0 {
			hops = r.cfg.Net.Stations
		}
		pass = float64(hops) * r.plant.hop
	}
	r.tokenTime += pass
	r.rotation.Add(pass)
	r.tokenPos = target
	if pass > 0 {
		emit(r.tracer, TraceEvent{Time: now, Kind: TraceTokenPass, Station: target, Duration: pass})
	}

	// A token lost on the way delays the frame by the recovery.
	rec, _ := r.tokenLoss(target, now+pass)
	payload := min(msg.remainingBits, r.cfg.Frame.InfoBits)
	eff := r.plant.effectiveFrameTime(payload)
	r.syncTime += eff
	r.target = target
	r.finished = r.send(target, now+pass+rec, eff, payload, msg, 0)
	_, _ = r.engine.At(now+pass+rec+eff, r.completeFn)
}

// complete ends the frame on the medium: a frame that carried its
// message's last bits completes the message, then the medium serves the
// next frame.
func (r *pdpRun) complete() {
	if r.finished {
		r.finishMessage(r.target, r.engine.Now())
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
	emit(r.tracer, TraceEvent{
		Time: now + pass, Kind: TraceAsync, Station: r.tokenPos,
		Duration: eff, Detail: r.cfg.Frame.InfoBits,
	})
	_, _ = r.engine.At(now+pass+eff, r.kick)
}
