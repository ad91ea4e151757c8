package tokensim

import (
	"context"
	"errors"

	"ringsched/internal/frame"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/sim"
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
	// Horizon is the simulated duration, finite; zero picks a default (20
	// periods of the slowest stream).
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

// resRun is the 802.5 priority/reservation arbitration of one run on the
// shared harness.
type resRun struct {
	harness
	cfg      ReservationSim
	stations []*resStation
	// levels is the number of priority levels in use, and perLevel the
	// streams per level: the streams of ranks g·perLevel up to
	// (g+1)·perLevel share level levels−g.
	levels, perLevel int
	// bids is the reservation walk's scratch, one entry per level.
	bids []int32

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
	r, err := newResRun(c)
	if err != nil {
		return ReservationResult{}, err
	}
	ctx, sp := trace.Start(ctx, "sim.reservation")
	defer sp.End()
	sp.SetAttr("levels", c.PriorityLevels)
	res, err := r.run(ctx, sp, c.MaxEvents, c.Progress)
	if err != nil {
		return ReservationResult{}, err
	}
	sp.SetAttr("inversions", r.inversions)
	return ReservationResult{Result: res, PriorityInversions: r.inversions}, nil
}

// newResRun validates the configuration and builds its run, with the free
// token at station 0 at priority 0 at time 0.
func newResRun(c ReservationSim) (*resRun, error) {
	if c.PriorityLevels < 0 {
		return nil, ErrBadPriorityLevels
	}
	rc := ringConfig{
		protocol: "IEEE 802.5 (reservation MAC)", net: c.Net, sync: c.Frame, async: c.Frame,
		workload: c.Workload, horizon: c.Horizon, faults: c.Faults, tracer: c.Tracer,
	}
	horizon, err := rc.validate()
	if err != nil {
		return nil, err
	}

	r := &resRun{cfg: c}
	r.setup(rc, horizon, nil)
	r.arbitrate()
	r.stations = make([]*resStation, c.Net.Stations)
	r.arrive = make([]sim.Handler, c.Net.Stations)
	// Each station's priority stack takes its first slot from one array,
	// so that a long run does not allocate as station after station first
	// raises the ring's priority.
	stacks := make([]stackedPriority, c.Net.Stations)
	for i := range r.stations {
		r.stations[i] = &resStation{stack: stacks[i : i : i+1]}
		r.arrive[i] = func() { r.tokenAt(i) }
	}
	r.completeFn = r.complete
	for i, sync := range r.syncs {
		r.stations[i].sync = sync
	}
	r.assignPriorities()
	_, _ = r.engine.At(0, r.arrive[0])
	return r, nil
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
// streams than levels, streams are partitioned into L rate groups of
// consecutive ranks.
func (r *resRun) assignPriorities() {
	m := len(r.syncs)
	r.levels = r.cfg.PriorityLevels
	if r.levels == 0 || r.levels > m {
		r.levels = m
	}
	r.perLevel = (m + r.levels - 1) / r.levels
	for k, i := range r.byRank {
		r.stations[i].priority = r.level(k)
	}
	r.bids = make([]int32, 0, r.levels)
}

// level returns the ring priority of the stream of rank k.
func (r *resRun) level(k int) int { return r.levels - k/r.perLevel }

// background is the pending priority of a station with no synchronous
// message queued.
func (r *resRun) background() int {
	if r.cfg.AsyncSaturated {
		return asyncPriority
	}
	return noPending
}

// topPending returns the station's highest pending priority, or noPending
// when it has nothing to send.
func (r *resRun) topPending(idx int) int {
	st := r.stations[idx]
	if st.sync != nil && len(st.sync.queue) > 0 {
		return st.priority
	}
	return r.background()
}

// highestPendingOnRing returns the maximum pending priority across all
// stations (noPending when the ring is silent): that of the pending
// station of least rank.
func (r *resRun) highestPendingOnRing() int {
	if k := r.pending.next(0); k >= 0 {
		return r.level(k)
	}
	return r.background()
}

// reservations returns the reservation field the frame of station idx
// brings back — the highest priority pending at any other station — and
// traces the bids that write it on the way round: in station order, each
// station whose pending priority exceeds every earlier bid.
//
// The pending stations are walked by rank, one priority level at a time
// from the highest: a level bids at its least station index when that lies
// below floor, the least index of the levels above, so these bids come in
// falling station order. The stations below floor bid as a sweep over
// them in station order would, and the sweep takes over from the walk
// once floor is no larger than the members left to walk; it stops at
// ceiling, the highest priority a station below floor can hold.
func (r *resRun) reservations(idx int, now float64) int {
	n := r.plant.n
	bids := r.bids[:0]
	floor, ceiling, left := n, r.background(), r.pending.size
	for k := r.pending.next(0); k >= 0; {
		if floor <= left {
			ceiling = r.level(k)
			break
		}
		least := n
		for end := (k/r.perLevel + 1) * r.perLevel; k >= 0 && k < end; k = r.pending.next(k + 1) {
			if i := int(r.byRank[k]); i != idx && i < least {
				least = i
			}
			left--
		}
		if least < floor {
			bids = append(bids, int32(least))
			floor = least
		}
	}
	reserved := noPending
	for i := 0; i < floor && reserved < ceiling; i++ {
		if q := r.topPending(i); i != idx && q > reserved {
			reserved = q
			emit(r.tracer, TraceEvent{Time: now, Kind: TraceReserve, Station: i, Detail: float64(q)})
		}
	}
	for j := len(bids) - 1; j >= 0; j-- {
		i := int(bids[j])
		reserved = r.stations[i].priority
		emit(r.tracer, TraceEvent{Time: now, Kind: TraceReserve, Station: i, Detail: float64(reserved)})
	}
	r.bids = bids
	return reserved
}

// tokenAt processes the free token arriving at station idx.
func (r *resRun) tokenAt(idx int) {
	now := r.engine.Now()
	r.releaseDue(now)
	st := r.stations[idx]
	if r.bypass(now, idx, r.arrive[idx]) {
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
		emit(r.tracer, TraceEvent{Time: now, Kind: TraceReserve, Station: idx, Detail: float64(p)})
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
		emit(r.tracer, TraceEvent{Time: now, Kind: TraceAsync, Station: idx, Duration: eff, Detail: payload})
	} else {
		msg := &st.sync.queue[0]
		payload = min(msg.remainingBits, r.cfg.Frame.InfoBits)
		eff = r.plant.effectiveFrameTime(payload)
		r.syncTime += eff
		finishMsg = r.send(idx, now, eff, payload, msg, 0)
	}

	if r.served {
		r.rotation.Add(now - r.lastService)
	}

	r.sender, r.finishMsg = idx, finishMsg
	r.schedule(now+eff, r.completeFn)
}

// complete strips the frame on the medium, completing its message when it
// carried the last bits, and issues the new free token.
func (r *resRun) complete() {
	now, idx := r.engine.Now(), r.sender
	if r.finishMsg {
		r.finishMessage(idx, now)
	}
	r.lastService = now
	r.served = true

	// Issue the new token. The reservation field collected during the
	// frame's circulation is the max pending priority elsewhere.
	reserved := r.reservations(idx, now)
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
	rec, _ := r.tokenLoss(idx, now)
	hop := r.plant.hop
	r.tokenTime += hop
	emit(r.tracer, TraceEvent{Time: now, Kind: TraceTokenPass, Station: idx, Duration: hop})
	r.schedule(now+hop+rec, r.arrive[(idx+1)%r.cfg.Net.Stations])
}
