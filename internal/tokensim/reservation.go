package tokensim

import (
	"context"
	"errors"
	"math"

	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
	"ringsched/internal/stats"
	"ringsched/internal/trace"
)

// ErrBadPriorityLevels reports an unusable priority-level count.
var ErrBadPriorityLevels = errors.New("tokensim: priority levels must be positive")

// ReservationSim is a faithful simulator of the IEEE 802.5 priority and
// reservation mechanism — the machinery the paper's PDP analysis abstracts
// into "the highest-priority pending frame transmits next, paying Θ/2 on
// average".
//
// Mechanics modeled:
//
//   - The free token carries a priority field P; a station may capture it
//     only with a pending frame of priority ≥ P.
//   - While a frame (or token) circulates, stations write their highest
//     pending priority into the reservation field R.
//   - The transmitter strips its frame after the header returns and issues
//     a new token at priority max(P, R); a station that raises the ring's
//     priority becomes a *stacking station* and is responsible for lowering
//     it again (the 802.5 Sx/Sr stack).
//   - The token holding timer admits one frame per capture (the paper's
//     rate-monotonic implementation).
//
// Unlike PDPSim, arbitration is decided by the actual token state, so a
// limited number of priority levels (IEEE 802.5 has 8) maps many streams
// onto one level and produces real priority inversion — the effect the
// EXT-PRIO experiment quantifies.
type ReservationSim struct {
	// Net is the ring plant.
	Net ring.Config
	// Frame is the shared frame format.
	Frame frame.Spec
	// Workload supplies the synchronous streams and their phasing;
	// stream i sits at station i.
	Workload Workload
	// PriorityLevels is the number of distinct ring priority levels
	// available to synchronous traffic (8 in IEEE 802.5). Streams are
	// assigned levels rate-monotonically; with fewer levels than streams,
	// several streams share a level and arbitration among them degrades
	// to position order. Zero means one level per stream (ideal).
	PriorityLevels int
	// AsyncSaturated keeps a lowest-priority asynchronous frame pending
	// at every station.
	AsyncSaturated bool
	// Horizon is the simulated duration; zero picks a default (20 periods
	// of the slowest stream).
	Horizon float64
	// Tracer, when non-nil, observes simulator events.
	Tracer Tracer
	// Faults, when non-nil, injects token-loss failures (charged when the
	// token is issued).
	Faults *Faults
	// MaxEvents bounds the discrete events fired by one run; 0 means
	// unlimited. Exceeding it aborts with sim.ErrMaxEvents.
	MaxEvents int
	// Progress, when non-nil, observes event-loop advancement.
	Progress progress.Progress
}

// resStation is one station's MAC state.
type resStation struct {
	// sync is nil for stations without a synchronous stream.
	sync *stationState
	// priority is the ring priority level of the station's synchronous
	// frames (higher number = higher priority).
	priority int
	// stack holds the 802.5 priority stack: pairs of (old, new) the
	// station pushed when it raised the ring priority.
	stack []stackedPriority
}

type stackedPriority struct {
	old int
	new int
}

// resRun is the mutable state of one run.
type resRun struct {
	cfg      ReservationSim
	plant    plant
	engine   sim.Engine
	stations []*resStation
	horizon  float64
	// syncs holds the synchronous state of stations 0..len(streams)-1,
	// the stations that carry streams; nextDue is their earliest next
	// arrival, below which tokenAt skips the release sweep.
	syncs   []*stationState
	nextDue float64

	// arrive[i] is tokenAt(i) and completeFn is complete, bound once so
	// that scheduling them allocates nothing.
	arrive     []sim.Handler
	completeFn sim.Handler
	// sender is the station whose frame is on the medium, and finishMsg
	// reports that the frame carries its message's last bits. A frame and
	// a free token never circulate together, so the ring has at most one
	// frame in flight and complete reads them from here.
	sender    int
	finishMsg bool

	// tokenPrio is the priority field of the circulating free token;
	// reservation is its reservation field.
	tokenPrio   int
	reservation int

	syncTime  float64
	asyncTime float64
	tokenTime float64
	passStats stats.Running

	// inj is the fault injector for this run; nil on a healthy ring.
	inj       *faults.Injector
	recovery  float64
	losses    int
	corrupted int
	// lastService is when the previous frame finished, for inter-service
	// gap statistics.
	lastService float64
	served      bool
	// inversions counts frames transmitted while a strictly
	// higher-priority frame was pending somewhere on the ring.
	inversions int
}

// asyncPriority is the ring priority of background traffic: level 0, below
// every synchronous level (1..L), matching 802.5 where the free token
// rests at priority 0. A station with nothing to send reports noPending.
const (
	asyncPriority = 0
	noPending     = -1
)

// Run executes the simulation. It is the uncancelable convenience wrapper
// around RunContext.
func (c ReservationSim) Run() (ReservationResult, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation: the event loop polls ctx
// periodically and aborts with ctx.Err() once it is canceled.
func (c ReservationSim) RunContext(ctx context.Context) (ReservationResult, error) {
	if err := c.Net.Validate(); err != nil {
		return ReservationResult{}, err
	}
	if err := c.Frame.Validate(); err != nil {
		return ReservationResult{}, err
	}
	if err := c.Workload.Streams.Validate(); err != nil {
		return ReservationResult{}, err
	}
	if err := c.Faults.Validate(); err != nil {
		return ReservationResult{}, err
	}
	if c.PriorityLevels < 0 {
		return ReservationResult{}, ErrBadPriorityLevels
	}
	horizon := c.Horizon
	if horizon == 0 {
		horizon = horizonFor(c.Workload.Streams, 20)
	}
	if horizon <= 0 {
		return ReservationResult{}, ErrBadHorizon
	}

	r := &resRun{cfg: c, horizon: horizon, nextDue: math.Inf(1)}
	r.plant = newPlant(c.Net, c.Frame, c.Frame)
	r.inj = c.Faults.Injector(c.Net.Stations, r.plant.theta, horizon)
	r.stations = make([]*resStation, c.Net.Stations)
	r.arrive = make([]sim.Handler, c.Net.Stations)
	for i := range r.stations {
		r.stations[i] = &resStation{}
		r.arrive[i] = func() { r.tokenAt(i) }
	}
	r.completeFn = r.complete
	r.syncs = make([]*stationState, len(c.Workload.Streams))
	for i, s := range c.Workload.Streams {
		r.syncs[i] = &stationState{stream: s, nextArrival: c.Workload.Offsets[i]}
		r.stations[i].sync = r.syncs[i]
		if r.syncs[i].nextArrival < r.nextDue {
			r.nextDue = r.syncs[i].nextArrival
		}
	}
	r.assignPriorities()

	ctx, sp := trace.Start(ctx, "sim.reservation")
	defer sp.End()
	sp.SetAttr("stations", c.Net.Stations)
	sp.SetAttr("levels", c.PriorityLevels)
	sp.SetAttr("horizonSec", horizon)

	// The free token starts at station 0 at priority 0.
	if _, err := r.engine.At(0, r.arrive[0]); err != nil {
		sp.SetError(err)
		return ReservationResult{}, err
	}
	err := r.engine.RunUntilContext(ctx, horizon, runLoopOptions(c.MaxEvents, c.Progress))
	sp.SetAttr("events", r.engine.Fired())
	if err != nil {
		sp.SetError(err)
		return ReservationResult{}, err
	}

	stationResults, misses := collectStations(r.syncs, horizon)
	res := ReservationResult{
		Result: Result{
			Protocol:        "IEEE 802.5 (reservation MAC)",
			Horizon:         horizon,
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
		},
		PriorityInversions: r.inversions,
	}
	res.IdleTime = math.Max(0, horizon-res.SyncTime-res.AsyncTime-res.TokenTime-res.RecoveryTime)
	sp.SetAttr("misses", misses)
	sp.SetAttr("inversions", r.inversions)
	return res, nil
}

// ReservationResult extends Result with arbitration quality metrics.
type ReservationResult struct {
	Result
	// PriorityInversions counts frames transmitted while a strictly
	// higher-priority synchronous frame waited at another station —
	// impossible under ideal arbitration, expected when priority levels
	// are scarce.
	PriorityInversions int
}

// assignPriorities maps streams to ring priority levels rate-monotonically:
// the shortest period gets the highest level. With L levels and more
// streams than levels, streams are partitioned into L rate groups.
func (r *resRun) assignPriorities() {
	type ranked struct {
		station int
		period  float64
	}
	var order []ranked
	for i, st := range r.stations {
		if st.sync != nil {
			order = append(order, ranked{station: i, period: st.sync.stream.Period})
		}
	}
	// Insertion sort by period ascending (n is small; avoids an import).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].period < order[j-1].period; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	levels := r.cfg.PriorityLevels
	if levels == 0 || levels > len(order) {
		levels = len(order)
	}
	if levels == 0 {
		return
	}
	perLevel := (len(order) + levels - 1) / levels
	for rank, o := range order {
		// rank 0 (shortest period) → highest level number.
		group := rank / perLevel
		r.stations[o.station].priority = levels - group
	}
}

// topPending returns the station's highest pending priority, or noPending
// when it has nothing to send.
func (r *resRun) topPending(idx int) int {
	st := r.stations[idx]
	if st.sync != nil && len(st.sync.queue) > 0 {
		return st.priority
	}
	if r.cfg.AsyncSaturated {
		return asyncPriority
	}
	return noPending
}

// highestPendingOnRing returns the maximum pending priority across all
// stations (noPending when the ring is silent).
func (r *resRun) highestPendingOnRing() int {
	best := noPending
	for i := range r.stations {
		if p := r.topPending(i); p > best {
			best = p
		}
	}
	return best
}

// tokenAt processes the free token arriving at station idx.
func (r *resRun) tokenAt(idx int) {
	now := r.engine.Now()
	if now >= r.nextDue {
		r.nextDue = releaseAll(r.syncs, now, r.cfg.Tracer)
	}
	st := r.stations[idx]

	// Ring reconfiguration: crashes and restarts up to now pause the whole
	// ring for the beacon/bypass latency, then the visit resumes.
	if bp := r.inj.TakeBypass(now); bp > 0 {
		r.recovery += bp
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceRecovery, Station: idx, Duration: bp})
		_, _ = r.engine.At(now+bp, r.arrive[idx])
		return
	}

	// A crashed station is bypassed: it neither captures the token nor
	// bids a reservation; the token passes straight through.
	if r.inj.Down(idx, now) {
		r.forwardToken(idx, now)
		return
	}

	// Unstacking: a stacking station seeing the free token at its stacked
	// priority decides whether to lower the ring priority.
	if len(st.stack) > 0 && st.stack[len(st.stack)-1].new == r.tokenPrio {
		top := st.stack[len(st.stack)-1]
		if r.reservation > top.old {
			// Re-issue at the reserved priority; stay stacked.
			st.stack[len(st.stack)-1].new = r.reservation
			r.tokenPrio = r.reservation
		} else {
			r.tokenPrio = top.old
			st.stack = st.stack[:len(st.stack)-1]
		}
		r.reservation = 0
	}

	// Capture: a pending frame of priority ≥ token priority seizes the
	// token.
	if p := r.topPending(idx); p >= r.tokenPrio && p >= asyncPriority {
		r.transmit(idx, p, now)
		return
	}

	// No capture: record a reservation bid and forward the token.
	if p := r.topPending(idx); p > r.reservation && p > r.tokenPrio {
		r.reservation = p
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceReserve, Station: idx, Detail: float64(p)})
	}
	r.forwardToken(idx, now)
}

// transmit sends one frame from station idx at priority p.
func (r *resRun) transmit(idx, p int, now float64) {
	st := r.stations[idx]

	// Priority inversion accounting: someone strictly higher is waiting.
	if r.highestPendingOnRing() > p {
		r.inversions++
	}

	var eff float64
	finishMsg := false
	isAsync := p == asyncPriority || st.sync == nil || len(st.sync.queue) == 0
	var payload float64
	if isAsync {
		eff = max(r.plant.asyncTime, r.plant.theta)
		payload = r.cfg.Frame.InfoBits
		r.asyncTime += eff
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceAsync, Station: idx, Duration: eff, Detail: payload})
	} else {
		msg := &st.sync.queue[0]
		payload = min(msg.remainingBits, r.cfg.Frame.InfoBits)
		eff = r.plant.effectiveFrameTime(payload)
		r.syncTime += eff
		if r.inj.FrameCorrupted(idx) {
			// The frame held the medium but failed its CRC; the payload
			// stays queued for retransmission on a later capture.
			r.corrupted++
			emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceCorrupt, Station: idx, Duration: eff, Detail: payload})
		} else {
			msg.remainingBits -= payload
			finishMsg = msg.remainingBits <= 0
			emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceFrame, Station: idx, Duration: eff, Detail: payload})
		}
	}

	if r.served {
		r.passStats.Add(now - r.lastService)
	}

	done := now + eff
	if done > r.horizon {
		// The frame completes beyond the horizon; stop here.
		return
	}
	r.sender, r.finishMsg = idx, finishMsg
	_, _ = r.engine.At(done, r.completeFn)
}

// complete strips the frame on the medium, completing its message when it
// carried the last bits, and issues the new free token.
func (r *resRun) complete() {
	now, idx := r.engine.Now(), r.sender
	if r.finishMsg {
		st := r.stations[idx].sync
		completed := st.pop()
		lateness := st.finish(completed, now)
		kind := TraceComplete
		if lateness > 0 {
			kind = TraceMiss
		}
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: kind, Station: idx, Detail: lateness})
	}
	r.lastService = now
	r.served = true

	// Issue the new token. The reservation field collected during the
	// frame's circulation is the max pending priority elsewhere.
	reserved := noPending
	for i := range r.stations {
		if i == idx {
			continue
		}
		if q := r.topPending(i); q > reserved {
			reserved = q
			emit(r.cfg.Tracer, TraceEvent{
				Time: now, Kind: TraceReserve, Station: i, Detail: float64(q),
			})
		}
	}
	if reserved > r.tokenPrio {
		// Raise the ring priority and stack.
		r.stations[idx].stack = append(r.stations[idx].stack,
			stackedPriority{old: r.tokenPrio, new: reserved})
		r.tokenPrio = reserved
	}
	r.reservation = 0
	r.forwardToken(idx, now)
}

// forwardToken moves the free token one hop; a token lost on the hop is
// rebuilt by the claim/beacon process, during which the medium is dead.
func (r *resRun) forwardToken(idx int, now float64) {
	var rec float64
	if r.inj.TokenLost(idx) {
		rec = r.inj.RecoveryDuration()
		r.losses++
		r.recovery += rec
		emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceRecovery, Station: idx, Duration: rec})
	}
	hop := r.plant.hop
	r.tokenTime += hop
	emit(r.cfg.Tracer, TraceEvent{Time: now, Kind: TraceTokenPass, Station: idx, Duration: hop})
	next := (idx + 1) % r.cfg.Net.Stations
	at := now + hop + rec
	if at <= r.horizon {
		_, _ = r.engine.At(at, r.arrive[next])
	}
}
