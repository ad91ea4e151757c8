package tokensim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/sim"
	"ringsched/internal/stats"
	"ringsched/internal/topology"
	"ringsched/internal/trace"
)

// ErrInfeasibleAllocation reports that a TTP ring in the topology has no
// finite synchronous allocation (a stream whose deadline admits fewer than
// two token visits), so no simulator configuration realizes the analysis.
var ErrInfeasibleAllocation = errors.New("tokensim: topology analysis yields no finite synchronous allocation")

// TopologySim composes the per-ring PDP/TTP simulators through
// store-and-forward bridge queues into one multi-ring simulation on a
// single shared event engine. Each ring runs its exact single-ring
// simulator — the same event chains, the same floating-point arithmetic —
// so a 1-node topology reproduces the standalone PDPSim/TTPSim run bit for
// bit. Flows are released at their source ring with synchronized phasing
// (the critical instant); a message completing on a non-final ring enters
// the bridge toward its next hop, is serialized at the bridge's forwarding
// rate behind earlier arrivals, delayed by the fixed forwarding latency,
// and re-injected whole into the next ring's queue (store-and-forward).
// Deadlines are end-to-end: every hop of a message checks against its
// source arrival plus the flow period.
//
// TTP rings take their TTRT and synchronous allocations from the composed
// analysis (core.AnalyzeTopology), so the simulation validates exactly the
// configuration the analysis guarantees — including the deadline
// partitioning that sizes allocations for multi-hop flows.
type TopologySim struct {
	// Topology is the ring graph to simulate; it is canonicalized and
	// validated.
	Topology topology.Topology
	// AsyncSaturated keeps worst-case asynchronous interference active on
	// every ring, as in the single-ring simulators.
	AsyncSaturated bool
	// TokenPass selects the PDP token-circulation cost model; zero value
	// means PassMeasured.
	TokenPass TokenPassModel
	// Horizon is the simulated duration, finite; zero picks a default long
	// enough for steady state (20 periods of the slowest flow).
	Horizon float64
	// MaxEvents bounds the discrete events fired across all rings; 0 means
	// unlimited.
	MaxEvents int
	// Progress, when non-nil, observes event-loop advancement.
	Progress progress.Progress
}

// RingSimResult is one ring's outcome inside a topology run.
type RingSimResult struct {
	// Name and Protocol echo the ring node.
	Name     string
	Protocol topology.Protocol
	// Result is the ring's standalone-format simulation outcome; its
	// station deadlines are end-to-end for bridged flows.
	Result Result
}

// BridgeSimResult is one direction of one bridge.
type BridgeSimResult struct {
	// From and To name the rings this direction forwards between.
	From, To string
	// RateBPS and Latency echo the resolved forwarding parameters.
	RateBPS float64
	Latency float64
	// Forwarded and Dropped count messages accepted and rejected (buffer
	// overflow) by this direction.
	Forwarded int
	Dropped   int
	// MaxBacklogBits is the deepest store-and-forward backlog observed.
	MaxBacklogBits float64
	// BusyTime is the total serialization time spent forwarding.
	BusyTime float64
}

// FlowSimResult is one flow's end-to-end outcome.
type FlowSimResult struct {
	// Flow echoes the canonical flow.
	Flow topology.Flow
	// Path lists the ring names the flow traverses, source first.
	Path []string
	// Completed counts messages delivered at the final ring within the
	// end-to-end deadline; Missed counts late deliveries; Dropped counts
	// messages lost to bridge buffer overflow.
	Completed int
	Missed    int
	Dropped   int
	// MeanResponse and MaxResponse summarize end-to-end response times
	// (final completion − source arrival) of delivered messages.
	MeanResponse float64
	MaxResponse  float64
	// MaxLateness is the largest (completion − deadline) observed; zero or
	// negative means every delivery met its deadline.
	MaxLateness float64
}

// TopologyResult is the outcome of one multi-ring simulation.
type TopologyResult struct {
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// Rings holds per-ring outcomes in canonical ring order.
	Rings []RingSimResult
	// Bridges holds per-direction bridge outcomes for every bridge, A→B
	// then B→A, in canonical bridge order.
	Bridges []BridgeSimResult
	// Flows holds per-flow end-to-end outcomes in canonical flow order.
	Flows []FlowSimResult
	// DeadlineMisses totals late end-to-end deliveries across flows;
	// Drops totals bridge buffer losses.
	DeadlineMisses int
	Drops          int
}

// MissedAny reports whether any message was delivered late or lost.
func (r TopologyResult) MissedAny() bool { return r.DeadlineMisses > 0 || r.Drops > 0 }

// bridgeKey addresses one direction of one bridge.
type bridgeKey struct {
	bridge  int
	forward bool // true when forwarding from Bridges[bridge].A to .B
}

// bridgeDirState is the store-and-forward queue of one bridge direction.
type bridgeDirState struct {
	rate       float64
	latency    float64
	buffer     float64
	lastFinish float64
	backlog    float64
	maxBacklog float64
	busy       float64
	forwarded  int
	dropped    int
}

// forward serializes bits through the queue starting no earlier than now,
// invoking deliver at the post-latency delivery instant. It reports false
// (and counts a drop) when the buffer cannot hold the message.
func (b *bridgeDirState) forward(eng *sim.Engine, now, bits float64, deliver func(at float64)) bool {
	if b.buffer > 0 && b.backlog+bits > b.buffer {
		b.dropped++
		return false
	}
	b.backlog += bits
	if b.backlog > b.maxBacklog {
		b.maxBacklog = b.backlog
	}
	start := math.Max(now, b.lastFinish)
	finish := start + bits/b.rate
	b.lastFinish = finish
	b.busy += bits / b.rate
	b.forwarded++
	_, _ = eng.At(finish, func() { b.backlog -= bits })
	at := finish + b.latency
	_, _ = eng.At(at, func() { deliver(at) })
	return true
}

// flowState accumulates one flow's end-to-end statistics.
type flowState struct {
	completed   int
	missed      int
	dropped     int
	response    stats.Running
	maxLateness float64
}

// topoRun is the mutable state of one topology simulation.
type topoRun struct {
	cfg     TopologySim
	topo    topology.Topology
	engine  *sim.Engine
	horizon float64

	// rings holds each ring's run harness; nil for a flowless ring.
	rings   []*harness
	routes  [][]int
	station []map[string]int // ring index → flow name → station index
	bridges map[bridgeKey]*bridgeDirState
	flows   []flowState
}

// Run executes the simulation. It is the uncancelable convenience wrapper
// around RunContext.
func (c TopologySim) Run() (TopologyResult, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation.
func (c TopologySim) RunContext(ctx context.Context) (TopologyResult, error) {
	canon := c.Topology.Canonicalize()
	if err := canon.Validate(); err != nil {
		return TopologyResult{}, err
	}
	rep, err := core.AnalyzeTopology(canon)
	if err != nil {
		return TopologyResult{}, err
	}
	sets, routes, err := core.RingSets(canon)
	if err != nil {
		return TopologyResult{}, err
	}
	all := make(message.Set, len(canon.Flows))
	for i, f := range canon.Flows {
		all[i] = message.Stream{Name: f.Name, Period: f.Period, LengthBits: f.LengthBits}
	}
	horizon, err := resolveHorizon(c.Horizon, all)
	if err != nil {
		return TopologyResult{}, err
	}

	r := &topoRun{
		cfg:     c,
		topo:    canon,
		engine:  &sim.Engine{},
		horizon: horizon,
		rings:   make([]*harness, len(canon.Nodes)),
		routes:  routes,
		station: make([]map[string]int, len(canon.Nodes)),
		bridges: map[bridgeKey]*bridgeDirState{},
		flows:   make([]flowState, len(canon.Flows)),
	}

	flowSrc := make(map[string]string, len(canon.Flows))
	for _, f := range canon.Flows {
		flowSrc[f.Name] = f.Src
	}
	for i, n := range canon.Nodes {
		r.station[i] = make(map[string]int, len(sets[i]))
		for j, s := range sets[i] {
			r.station[i][s.Name] = j
		}
		if len(sets[i]) == 0 {
			continue // a flowless ring contributes no events
		}
		// Local flows release at time 0 (the critical instant); transit
		// and sink streams never self-release — their messages arrive
		// only by bridge hand-off.
		w := Workload{Streams: sets[i], Offsets: make([]float64, len(sets[i]))}
		for j, s := range sets[i] {
			if flowSrc[s.Name] != n.Name {
				w.Offsets[j] = math.Inf(1)
			}
		}
		h, err := r.newRingRun(n, rep.Rings[i], w)
		if err != nil {
			return TopologyResult{}, fmt.Errorf("ring %q: %w", n.Name, err)
		}
		h.onDone = func(msg pendingMessage, at float64) { r.deliver(i, msg, at) }
		r.rings[i] = h
	}

	// Tag each flow's stations on its route with the flow index.
	for fi, f := range canon.Flows {
		for _, ri := range routes[fi] {
			r.rings[ri].syncs[r.station[ri][f.Name]].flow = fi
		}
	}
	for bi := range canon.Bridges {
		for _, fwd := range []bool{true, false} {
			r.bridges[bridgeKey{bridge: bi, forward: fwd}] = &bridgeDirState{
				rate:    canon.BridgeRate(bi),
				latency: canon.Bridges[bi].Latency,
				buffer:  canon.Bridges[bi].BufferBits,
			}
		}
	}

	ctx, sp := trace.Start(ctx, "sim.topology")
	defer sp.End()
	sp.SetAttr("rings", len(canon.Nodes))
	sp.SetAttr("flows", len(canon.Flows))
	sp.SetAttr("horizonSec", horizon)

	if err := runEngine(ctx, sp, r.engine, horizon, c.MaxEvents, c.Progress); err != nil {
		return TopologyResult{}, err
	}

	res := r.collect()
	sp.SetAttr("misses", res.DeadlineMisses)
	sp.SetAttr("drops", res.Drops)
	return res, nil
}

// newRingRun builds ring n's run on the shared engine, configured exactly
// as the analysis configures its analyzer (same plant, same frame format,
// same station bump) so the 1-node case is the standalone run.
func (r *topoRun) newRingRun(n topology.Node, verdict core.TopologyRingVerdict, w Workload) (*harness, error) {
	switch a := core.AnalyzerForNode(n, len(w.Streams)).(type) {
	case core.PDP:
		run, err := newPDPRun(PDPSim{
			Net:            a.Net,
			Frame:          a.Frame,
			Variant:        a.Variant,
			Workload:       w,
			AsyncSaturated: r.cfg.AsyncSaturated,
			Horizon:        r.horizon,
			TokenPass:      r.cfg.TokenPass,
		}, r.engine)
		if err != nil {
			return nil, err
		}
		return &run.harness, nil
	case core.TTP:
		alloc := make([]float64, len(verdict.TTP.Streams))
		for j, sr := range verdict.TTP.Streams {
			if math.IsInf(sr.Allocation, 0) || math.IsNaN(sr.Allocation) {
				return nil, fmt.Errorf("%w: stream %q", ErrInfeasibleAllocation, sr.Stream.Name)
			}
			alloc[j] = sr.Allocation
		}
		run, err := newTTPRun(TTPSim{
			Net:            a.Net,
			SyncFrame:      a.SyncFrame,
			AsyncFrame:     a.AsyncFrame,
			TTRT:           verdict.TTP.TTRT,
			Allocations:    alloc,
			Workload:       w,
			AsyncSaturated: r.cfg.AsyncSaturated,
			Horizon:        r.horizon,
		}, r.engine)
		if err != nil {
			return nil, err
		}
		return &run.harness, nil
	default:
		return nil, fmt.Errorf("%w: %q", topology.ErrBadProtocol, n.Protocol)
	}
}

// deliver routes a message completed on ring ri: record the end-to-end
// outcome at the final ring, or forward through the next bridge.
func (r *topoRun) deliver(ri int, msg pendingMessage, at float64) {
	f := r.topo.Flows[msg.flow]
	path := r.routes[msg.flow]
	hop := -1
	for h, rr := range path {
		if rr == ri {
			hop = h
			break
		}
	}
	if hop == len(path)-1 {
		fs := &r.flows[msg.flow]
		fs.response.Add(at - msg.source)
		lateness := at - msg.deadline
		if lateness > fs.maxLateness {
			fs.maxLateness = lateness
		}
		if lateness > 0 {
			fs.missed++
		} else {
			fs.completed++
		}
		return
	}
	next := path[hop+1]
	from, to := r.topo.Nodes[ri].Name, r.topo.Nodes[next].Name
	bi := r.topo.BridgeIndex(from, to)
	dir := r.bridges[bridgeKey{bridge: bi, forward: r.topo.Bridges[bi].A == from}]
	ok := dir.forward(r.engine, at, f.LengthBits, func(deliveredAt float64) {
		r.rings[next].inject(r.station[next][f.Name], pendingMessage{
			arrival:       deliveredAt,
			deadline:      msg.deadline,
			remainingBits: f.LengthBits,
			flow:          msg.flow,
			source:        msg.source,
		})
	})
	if !ok {
		r.flows[msg.flow].dropped++
	}
}

// collect summarizes the run after the event loop has drained.
func (r *topoRun) collect() TopologyResult {
	res := TopologyResult{Horizon: r.horizon}
	for i, n := range r.topo.Nodes {
		rr := RingSimResult{Name: n.Name, Protocol: n.Protocol}
		if r.rings[i] != nil {
			rr.Result = r.rings[i].collect()
		} else {
			rr.Result = Result{Protocol: protocolLabel(n.Protocol), Horizon: r.horizon, IdleTime: r.horizon}
		}
		res.Rings = append(res.Rings, rr)
	}
	for bi, b := range r.topo.Bridges {
		for _, fwd := range []bool{true, false} {
			dir := r.bridges[bridgeKey{bridge: bi, forward: fwd}]
			from, to := b.A, b.B
			if !fwd {
				from, to = b.B, b.A
			}
			res.Bridges = append(res.Bridges, BridgeSimResult{
				From: from, To: to,
				RateBPS: dir.rate, Latency: dir.latency,
				Forwarded: dir.forwarded, Dropped: dir.dropped,
				MaxBacklogBits: dir.maxBacklog, BusyTime: dir.busy,
			})
		}
	}
	for fi, f := range r.topo.Flows {
		fs := &r.flows[fi]
		path := make([]string, len(r.routes[fi]))
		for h, ri := range r.routes[fi] {
			path[h] = r.topo.Nodes[ri].Name
		}
		res.Flows = append(res.Flows, FlowSimResult{
			Flow:         f,
			Path:         path,
			Completed:    fs.completed,
			Missed:       fs.missed,
			Dropped:      fs.dropped,
			MeanResponse: fs.response.Mean(),
			MaxResponse:  fs.response.Max(),
			MaxLateness:  fs.maxLateness,
		})
		res.DeadlineMisses += fs.missed
		res.Drops += fs.dropped
	}
	return res
}

// protocolLabel matches the Protocol string the per-ring simulators report.
func protocolLabel(p topology.Protocol) string {
	switch p {
	case topology.Standard8025:
		return core.Standard8025.String()
	case topology.Modified8025:
		return core.Modified8025.String()
	default:
		return "FDDI"
	}
}
