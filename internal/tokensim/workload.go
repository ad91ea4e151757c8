// Package tokensim provides operational (discrete-event) simulators for the
// two MAC protocols analyzed in the paper: the priority driven protocol of
// IEEE 802.5 (standard and modified variants) and the timed token protocol
// of FDDI.
//
// The simulators share the analytical model's abstractions — frame-granular
// medium occupancy, Section 4.3 effective frame times, token walk time
// distributed uniformly around the ring — and exist to validate the
// schedulability criteria: a set the analysis guarantees must not miss
// deadlines in simulation, under worst-case phasing and saturated
// asynchronous interference.
package tokensim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/stats"
)

// Errors returned by workload construction and the simulators.
var (
	ErrTooManyStreams = errors.New("tokensim: more streams than stations")
	ErrBadOffsets     = errors.New("tokensim: one non-negative first-arrival offset per stream required")
	ErrBadHorizon     = errors.New("tokensim: horizon must be positive and finite")
	ErrNilRandPhases  = errors.New("tokensim: random phasing requires a non-nil *rand.Rand")
)

// Phasing selects the relative arrival offsets of the streams.
type Phasing int

const (
	// PhasingSynchronized releases the first message of every stream at
	// time zero — the critical instant the analyses assume.
	PhasingSynchronized Phasing = iota + 1
	// PhasingRandom draws each stream's initial offset uniformly from
	// [0, period).
	PhasingRandom
)

// Workload binds message streams to ring stations and fixes their phasing.
type Workload struct {
	// Streams holds one entry per station that carries synchronous
	// traffic; stream i is attached to station i.
	Streams message.Set
	// Offsets holds the first-arrival time of each stream: non-negative,
	// or +Inf for a stream that never releases on its own.
	Offsets []float64
}

// NewWorkload attaches the set's streams to stations 0..len-1 of a ring
// with at least that many stations, with the requested phasing.
func NewWorkload(m message.Set, stations int, phasing Phasing, rng *rand.Rand) (Workload, error) {
	w := Workload{Streams: m.Clone(), Offsets: make([]float64, len(m))}
	if err := w.validate(stations); err != nil {
		return Workload{}, err
	}
	if phasing == PhasingRandom {
		if rng == nil {
			return Workload{}, ErrNilRandPhases
		}
		for i, s := range w.Streams {
			w.Offsets[i] = rng.Float64() * s.Period
		}
	}
	return w, nil
}

// validate checks the workload for a ring of the given station count: a
// valid stream set of at most one stream per station, and one
// non-negative offset per stream. An offset may be +Inf, a stream that
// never releases (a topology's transit streams); NaN never releases
// either, and a negative offset lies before the run starts.
func (w Workload) validate(stations int) error {
	if err := w.Streams.Validate(); err != nil {
		return err
	}
	if len(w.Streams) > stations {
		return fmt.Errorf("%w: %d > %d", ErrTooManyStreams, len(w.Streams), stations)
	}
	if len(w.Offsets) != len(w.Streams) {
		return fmt.Errorf("%w: %d offsets for %d streams", ErrBadOffsets, len(w.Offsets), len(w.Streams))
	}
	for i, off := range w.Offsets {
		if !(off >= 0) {
			return fmt.Errorf("%w: stream %d offset %g", ErrBadOffsets, i, off)
		}
	}
	return nil
}

// pendingMessage is one queued synchronous message instance. flow and
// source carry its topology provenance — the flow index it belongs to and
// its arrival time at the source ring — so a bridged hand-off keeps its
// end-to-end deadline; standalone runs leave them at their zero values.
type pendingMessage struct {
	arrival       float64
	deadline      float64
	remainingBits float64
	flow          int
	source        float64
}

// stationState tracks one station's synchronous queue and statistics.
type stationState struct {
	stream message.Stream
	// flow is the topology flow index of locally released messages (zero
	// outside topology composition).
	flow int
	// queue holds the pending messages, oldest first, as a window of buf,
	// its backing array: pop advances the window's start, and push moves
	// the window back to the array's start once pops have freed enough
	// room there.
	queue, buf []pendingMessage
	// nextArrival is the release time of the next message instance.
	nextArrival float64
	// completed/missed count finished messages by deadline outcome;
	// a message that finishes late counts as missed.
	completed int
	missed    int
	// response accumulates response times of finished messages.
	response stats.Running
	// maxLateness is the largest (completion − deadline) observed; zero
	// or negative means all deadlines met.
	maxLateness float64
	// maxQueue is the deepest backlog of simultaneously pending messages.
	maxQueue int
}

// release enqueues every message instance due by now. onRelease, when
// non-nil, observes each released message (used for tracing).
func (s *stationState) release(now float64, onRelease func(pendingMessage)) {
	for s.nextArrival <= now {
		msg := pendingMessage{
			arrival:       s.nextArrival,
			deadline:      s.nextArrival + s.stream.Period,
			remainingBits: s.stream.LengthBits,
			flow:          s.flow,
			source:        s.nextArrival,
		}
		s.push(msg)
		s.nextArrival += s.stream.Period
		if onRelease != nil {
			onRelease(msg)
		}
	}
}

// push enqueues one message and tracks the backlog high-water mark. When
// the queue has reached the end of its backing array, it moves back to the
// array's start if pops have freed at least as many slots there as it
// holds — a copy paid for by those pops, so push and pop stay O(1)
// amortized and a steady backlog reuses one array — and otherwise append
// moves it into a larger one.
func (s *stationState) push(msg pendingMessage) {
	grow := false
	if n := len(s.queue); n == cap(s.queue) {
		if front := cap(s.buf) - n; front > 0 && front >= n {
			s.queue = s.buf[:copy(s.buf[:n], s.queue)]
		} else {
			grow = true
		}
	}
	s.queue = append(s.queue, msg)
	if grow {
		s.buf = s.queue[:0]
	}
	if len(s.queue) > s.maxQueue {
		s.maxQueue = len(s.queue)
	}
}

// pop dequeues the front message.
func (s *stationState) pop() pendingMessage {
	msg := s.queue[0]
	s.queue = s.queue[1:]
	return msg
}

// finish records a completed message and returns its lateness (positive
// when the deadline was missed).
func (s *stationState) finish(msg pendingMessage, now float64) (lateness float64) {
	resp := now - msg.arrival
	s.response.Add(resp)
	lateness = now - msg.deadline
	if lateness > s.maxLateness {
		s.maxLateness = lateness
	}
	if lateness > 0 {
		s.missed++
	} else {
		s.completed++
	}
	return lateness
}

// StationResult summarizes one station's simulation outcome.
type StationResult struct {
	// Station is the ring position.
	Station int
	// Stream echoes the attached stream.
	Stream message.Stream
	// Completed counts messages that met their deadline.
	Completed int
	// Missed counts messages that finished after their deadline.
	Missed int
	// Backlogged counts messages still queued (or in progress) at the
	// horizon whose deadlines had already passed.
	Backlogged int
	// MaxLateness is the worst completion − deadline in seconds (≤ 0 when
	// every deadline was met).
	MaxLateness float64
	// MeanResponse and MaxResponse summarize response times of finished
	// messages.
	MeanResponse float64
	MaxResponse  float64
	// MaxQueue is the deepest backlog of simultaneously pending messages
	// observed at the station — 1 means every message finished before
	// its successor arrived.
	MaxQueue int
}

// Result is the outcome of one simulation run.
type Result struct {
	// Protocol names the simulated MAC.
	Protocol string
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// Stations holds per-station outcomes for stations carrying streams.
	Stations []StationResult
	// DeadlineMisses is the total missed (finished-late plus backlogged
	// past-deadline) messages.
	DeadlineMisses int
	// SyncTime, AsyncTime, TokenTime and IdleTime decompose medium
	// occupancy over the horizon.
	SyncTime  float64
	AsyncTime float64
	TokenTime float64
	IdleTime  float64
	// Rotations summarizes observed token rotation times (TTP) or token
	// inter-service gaps (PDP).
	RotationMean float64
	RotationMax  float64
	RotationN    int
	// TokenLosses counts injected token-loss faults; RecoveryTime is the
	// total medium time spent in claim/beacon recovery and bypass
	// reconfiguration.
	TokenLosses  int
	RecoveryTime float64
	// CorruptedFrames counts frames that occupied the medium but failed
	// their CRC check and required retransmission.
	CorruptedFrames int
	// Crashes counts station crash events scheduled within the horizon.
	Crashes int
}

// MissedAny reports whether any deadline was missed.
func (r Result) MissedAny() bool { return r.DeadlineMisses > 0 }

// Utilization returns the fraction of the horizon spent on synchronous
// payload plus overheads, asynchronous traffic, and token passing.
func (r Result) Utilization() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return (r.SyncTime + r.AsyncTime + r.TokenTime) / r.Horizon
}

func collectStations(states []*stationState, horizon float64) ([]StationResult, int) {
	results := make([]StationResult, len(states))
	misses := 0
	for i, st := range states {
		backlogged := 0
		for _, msg := range st.queue {
			if msg.deadline < horizon {
				backlogged++
			}
		}
		results[i] = StationResult{
			Station:      i,
			Stream:       st.stream,
			Completed:    st.completed,
			Missed:       st.missed,
			Backlogged:   backlogged,
			MaxLateness:  st.maxLateness,
			MeanResponse: st.response.Mean(),
			MaxResponse:  st.response.Max(),
			MaxQueue:     st.maxQueue,
		}
		misses += st.missed + backlogged
	}
	return results, misses
}

// plant holds the ring and frame constants of one run, derived once from
// its configuration by the same expressions the event handlers would
// otherwise evaluate on every event.
type plant struct {
	// n is the station count.
	n  int
	bw float64
	// theta is Θ, the token circulation time; hop is Θ/n, the token's
	// travel time per hop.
	theta, hop float64
	// frame is the synchronous frame format; frameTime and ovhdTime are
	// its full and overhead-only transmission times.
	frame               frame.Spec
	frameTime, ovhdTime float64
	// asyncTime is the transmission time of one asynchronous frame.
	asyncTime float64
}

func newPlant(net ring.Config, sync, async frame.Spec) plant {
	bw, theta := net.BandwidthBPS, net.Theta()
	return plant{
		n:         net.Stations,
		bw:        bw,
		theta:     theta,
		hop:       theta / float64(net.Stations),
		frame:     sync,
		frameTime: sync.Time(bw),
		ovhdTime:  sync.OvhdTime(bw),
		asyncTime: async.Time(bw),
	}
}

// effectiveFrameTime implements the Section 4.3 medium occupancy rules for
// one synchronous frame carrying payloadBits.
func (p *plant) effectiveFrameTime(payloadBits float64) float64 {
	if p.frameTime <= p.theta {
		// The header returns only after a full circulation; the medium is
		// held for Θ regardless of the frame's own length.
		return p.theta
	}
	if payloadBits >= p.frame.InfoBits {
		return p.frameTime
	}
	// Short final frame: the transmitter may need to wait for the header.
	return max((payloadBits+p.frame.OvhdBits)/p.bw, p.theta)
}

// hopDistance is the number of forward hops from station a to station b on
// an n-station ring (0 when a == b).
func hopDistance(a, b, n int) int {
	return ((b-a)%n + n) % n
}

// horizonFor picks a default simulation length: enough periods of the
// slowest stream for steady state to show, never less than minPeriods of
// the fastest.
func horizonFor(m message.Set, periodsOfMax float64) float64 {
	return math.Max(periodsOfMax*m.MaxPeriod(), 50*m.MinPeriod())
}
