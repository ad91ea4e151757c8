package core

import (
	"fmt"
	"math"
	"sort"

	"ringsched/internal/message"
	"ringsched/internal/topology"
)

// This file composes the paper's single-ring verdicts into end-to-end
// guarantees for bridged ring-of-rings topologies, following the network
// calculus approach of Amari & Mifdaoui ("Worst-case timing analysis of
// ring networks with cyclic dependencies", PAPERS.md).
//
// Each flow is a periodic source: arrival curve α(t) = L + ρ·t with burst
// L = LengthBits and rate ρ = L/P. Inside a ring, Kamat & Zhao's exact
// analysis bounds the flow's response time D; traversing the ring inflates
// the burst to L + ρ·D. Each bridge direction is a FIFO rate-latency
// server (rate C, fixed forwarding latency T): the aggregate of the flows
// entering it is delayed by at most T + Σσ/C, is stable iff Σρ ≤ C, and
// never queues more than Σσ bits.
//
// The key structural choice is "shaping for free": every bridge re-shapes
// each transit flow to its original periodic profile (at most L bits per
// period P) before injecting it into the next ring. Re-shaping to a flow's
// own source curve adds nothing to its delay bound, but it means (a) every
// ring sees only periodic/sporadic streams, so the per-ring Kamat–Zhao
// analysis stays exact, and (b) ring delays never depend on bridge delays,
// so the cyclic fixed-point iteration of the general feed-forward analysis
// collapses into one pass: per-ring bounds, then bridge bounds, then sums.
//
// The timed token protocol needs one more idea to compose: its local
// allocation scheme sizes h_i so a message completes within q_i·TTRT,
// which is within one TTRT of the stream's period — the whole deadline is
// spent in one ring, leaving nothing for the rest of the route. So TTP
// rings analyze transit flows under deadline partitioning: a flow crossing
// k rings presents a local deadline of Period/k to each, which inflates
// its synchronous allocation (q_i = ⌊(P/k)/TTRT⌋) and shrinks its
// per-ring bound to q_i·TTRT ≤ P/k. A single-ring path has k = 1, so the
// 1-node special case is untouched. PDP rings need no partitioning: their
// response-time bound is computed from actual interference, not assigned
// from the deadline. Arrival rates are not overstated — partitioning
// tightens only deadlines; re-shaped transit arrivals keep their true
// minimum inter-arrival of one period, which both analyses admit as
// sporadic arrivals.
//
// The end-to-end bound of a flow is the sum of its per-ring response
// bounds and per-bridge delay bounds along its route; it meets its
// deadline iff that sum is at most its period.

// TopologyRingVerdict is one ring's verdict within a topology analysis.
// Exactly one of PDP/TTP is set for a ring that carries streams; a ring
// with no flows routed over it is trivially schedulable and carries
// neither.
type TopologyRingVerdict struct {
	// Name and Protocol echo the ring node.
	Name     string
	Protocol topology.Protocol
	// Set is the analyzed message set — the ring's local flows plus every
	// transit flow routed across it, in canonical flow order.
	Set message.Set
	// Schedulable is the ring-local Kamat–Zhao verdict.
	Schedulable bool
	// Utilization is the payload utilization of Set on this ring.
	Utilization float64
	// PDP and TTP hold the full per-ring report for the ring's protocol.
	PDP *PDPReport
	TTP *TTPReport
}

// TopologyBridgeVerdict is the network-calculus verdict for one direction
// of one bridge. Only directions that carry at least one flow are
// reported.
type TopologyBridgeVerdict struct {
	// From and To name the rings this direction forwards between.
	From, To string
	// RateBPS is the resolved forwarding rate C.
	RateBPS float64
	// Latency is the fixed forwarding latency T.
	Latency float64
	// Flows counts the flows aggregated on this direction.
	Flows int
	// ArrivalRateBPS is Σρ over those flows.
	ArrivalRateBPS float64
	// BurstBits is Σσ over those flows at the bridge input, after burst
	// inflation by the upstream ring's response bound. It is also the
	// direction's worst-case backlog.
	BurstBits float64
	// Stable reports Σρ ≤ C with a finite aggregate burst; an unstable
	// direction has an unbounded queue and DelayBound +Inf.
	Stable bool
	// DelayBound is the FIFO aggregate delay bound T + Σσ/C.
	DelayBound float64
	// BufferBits echoes the configured buffer limit (0 = unlimited);
	// BufferOK reports whether the worst-case backlog fits it.
	BufferBits float64
	BufferOK   bool
}

// TopologyFlowVerdict is one flow's end-to-end verdict.
type TopologyFlowVerdict struct {
	// Flow echoes the canonical flow.
	Flow topology.Flow
	// Path lists the ring names the flow traverses, source first.
	Path []string
	// RingDelays and BridgeDelays are the per-hop delay bounds along the
	// path (len(Path) rings, len(Path)−1 bridges). An unschedulable hop
	// contributes +Inf.
	RingDelays   []float64
	BridgeDelays []float64
	// Bound is the end-to-end delay bound: the sum of every hop.
	Bound float64
	// Bounded reports whether Bound is finite.
	Bounded bool
	// Schedulable reports the end-to-end guarantee: a finite bound within
	// the flow's period, with every bridge buffer on the path sufficient.
	Schedulable bool
}

// TopologyReport is the full analysis outcome for a bridged topology.
type TopologyReport struct {
	// Topology is the canonical topology the verdicts describe.
	Topology topology.Topology
	// Rings holds per-ring verdicts in canonical ring order.
	Rings []TopologyRingVerdict
	// Bridges holds per-direction bridge verdicts, sorted by (From, To).
	Bridges []TopologyBridgeVerdict
	// Flows holds per-flow end-to-end verdicts in canonical flow order.
	Flows []TopologyFlowVerdict
	// Schedulable reports whether every ring is locally schedulable and
	// every flow meets its end-to-end deadline.
	Schedulable bool
	// Bounded reports whether every flow has a finite end-to-end bound.
	Bounded bool
}

// AnalyzerForNode builds the single-ring analyzer for one topology node
// with the constructors the single-ring request path uses: the node's
// plant grown by the plant rule (Stations), and the paper's frame format.
// A 1-node topology therefore reproduces the direct PDP/TTP analysis bit
// for bit.
func AnalyzerForNode(n topology.Node, streams int) Analyzer {
	switch n.Protocol {
	case topology.Standard8025:
		return PDPFor(n.Ring, Standard8025, streams)
	case topology.Modified8025:
		return PDPFor(n.Ring, Modified8025, streams)
	default:
		return TTPFor(n.Ring, streams)
	}
}

// RingSets routes every flow and returns the per-ring message sets: ring
// i's local flows plus every transit flow crossing it, in canonical flow
// order, named after their flows. The topology must be canonical.
func RingSets(t topology.Topology) ([]message.Set, [][]int, error) {
	routes, err := t.Routes()
	if err != nil {
		return nil, nil, err
	}
	sets := make([]message.Set, len(t.Nodes))
	for fi, f := range t.Flows {
		for _, ri := range routes[fi] {
			sets[ri] = append(sets[ri], message.Stream{
				Name:       f.Name,
				Period:     f.Period,
				LengthBits: f.LengthBits,
			})
		}
	}
	return sets, routes, nil
}

// bridgeDir keys one direction of one bridge.
type bridgeDir struct {
	bridge  int
	forward bool // true when forwarding from Bridges[bridge].A to .B
}

// AnalyzeTopology runs the composed analysis: canonicalize and validate,
// route every flow, run the exact per-ring analysis on each ring's local
// plus transit streams, bound every bridge direction with the FIFO
// rate-latency aggregate, and sum each flow's hops into its end-to-end
// delay bound.
func AnalyzeTopology(t topology.Topology) (TopologyReport, error) {
	t = t.Canonicalize()
	if err := t.Validate(); err != nil {
		return TopologyReport{}, err
	}
	sets, routes, err := RingSets(t)
	if err != nil {
		return TopologyReport{}, err
	}

	rep := TopologyReport{
		Topology:    t,
		Rings:       make([]TopologyRingVerdict, len(t.Nodes)),
		Flows:       make([]TopologyFlowVerdict, len(t.Flows)),
		Schedulable: true,
		Bounded:     true,
	}

	// Deadline partitioning for TTP rings: a flow crossing k rings asks
	// each TTP ring on its path for completion within Period/k, so the
	// whole route fits the period. k = 1 leaves the period bit-identical
	// (P/1 == P), keeping the single-ring special case exact.
	pathLen := make(map[string]float64, len(t.Flows))
	for fi, f := range t.Flows {
		pathLen[f.Name] = float64(len(routes[fi]))
	}
	analysisSets := make([]message.Set, len(t.Nodes))
	for i, n := range t.Nodes {
		analysisSets[i] = sets[i]
		if n.Protocol != topology.FDDI {
			continue
		}
		scaled := append(message.Set(nil), sets[i]...)
		for j := range scaled {
			scaled[j].Period /= pathLen[scaled[j].Name]
		}
		analysisSets[i] = scaled
	}

	// Per-ring exact analysis; ringDelay[i][flow] is the flow's response
	// bound inside ring i (+Inf when the ring cannot guarantee it).
	ringDelay := make([]map[string]float64, len(t.Nodes))
	for i, n := range t.Nodes {
		v := TopologyRingVerdict{Name: n.Name, Protocol: n.Protocol, Set: analysisSets[i], Schedulable: true}
		ringDelay[i] = make(map[string]float64, len(sets[i]))
		if len(sets[i]) > 0 {
			switch a := AnalyzerForNode(n, len(sets[i])).(type) {
			case PDP:
				r, err := a.Report(analysisSets[i])
				if err != nil {
					return TopologyReport{}, fmt.Errorf("ring %q: %w", n.Name, err)
				}
				v.PDP, v.Schedulable, v.Utilization = &r, r.Schedulable, r.Utilization
				for _, s := range r.Streams {
					d := math.Inf(1)
					if s.Schedulable {
						d = s.ResponseTime
					}
					ringDelay[i][s.Stream.Name] = d
				}
			case TTP:
				r, err := a.Report(analysisSets[i])
				if err != nil {
					return TopologyReport{}, fmt.Errorf("ring %q: %w", n.Name, err)
				}
				v.TTP, v.Schedulable, v.Utilization = &r, r.Schedulable, r.Utilization
				for _, s := range r.Streams {
					d := math.Inf(1)
					// q_i·TTRT holds only when the ring-wide allocation
					// constraint Σh ≤ TTRT − θ is met.
					if r.Schedulable && s.Q >= 2 {
						d = s.WorstCaseResponse
					}
					ringDelay[i][s.Stream.Name] = d
				}
			}
		}
		rep.Rings[i] = v
		rep.Schedulable = rep.Schedulable && v.Schedulable
	}

	// Aggregate the flows entering each bridge direction. A flow's burst at
	// a bridge input is its source burst inflated by the ring it just
	// crossed (it was re-shaped to its source curve at the previous bridge).
	agg := map[bridgeDir]*TopologyBridgeVerdict{}
	flowDirs := make([][]bridgeDir, len(t.Flows))
	for fi, f := range t.Flows {
		path := routes[fi]
		for h := 0; h+1 < len(path); h++ {
			from, to := t.Nodes[path[h]].Name, t.Nodes[path[h+1]].Name
			bi := t.BridgeIndex(from, to)
			key := bridgeDir{bridge: bi, forward: t.Bridges[bi].A == from}
			v := agg[key]
			if v == nil {
				v = &TopologyBridgeVerdict{
					From:       from,
					To:         to,
					RateBPS:    t.BridgeRate(bi),
					Latency:    t.Bridges[bi].Latency,
					BufferBits: t.Bridges[bi].BufferBits,
				}
				agg[key] = v
			}
			v.Flows++
			v.ArrivalRateBPS += f.RateBPS()
			v.BurstBits += f.LengthBits + f.RateBPS()*ringDelay[path[h]][f.Name]
			flowDirs[fi] = append(flowDirs[fi], key)
		}
	}
	for _, v := range agg {
		v.Stable = v.ArrivalRateBPS <= v.RateBPS && !math.IsInf(v.BurstBits, 1)
		if v.Stable {
			v.DelayBound = v.Latency + v.BurstBits/v.RateBPS
		} else {
			v.DelayBound = math.Inf(1)
		}
		v.BufferOK = v.BufferBits == 0 || v.BurstBits <= v.BufferBits
		rep.Bridges = append(rep.Bridges, *v)
	}
	sort.Slice(rep.Bridges, func(i, j int) bool {
		if rep.Bridges[i].From != rep.Bridges[j].From {
			return rep.Bridges[i].From < rep.Bridges[j].From
		}
		return rep.Bridges[i].To < rep.Bridges[j].To
	})

	// End-to-end bounds: sum of the per-hop bounds along each flow's path.
	for fi, f := range t.Flows {
		path := routes[fi]
		v := TopologyFlowVerdict{Flow: f, Path: make([]string, len(path))}
		buffersOK := true
		for h, ri := range path {
			v.Path[h] = t.Nodes[ri].Name
			v.RingDelays = append(v.RingDelays, ringDelay[ri][f.Name])
			v.Bound += ringDelay[ri][f.Name]
		}
		for _, key := range flowDirs[fi] {
			b := agg[key]
			v.BridgeDelays = append(v.BridgeDelays, b.DelayBound)
			v.Bound += b.DelayBound
			buffersOK = buffersOK && b.BufferOK
		}
		v.Bounded = !math.IsInf(v.Bound, 1)
		v.Schedulable = v.Bounded && v.Bound <= f.Period && buffersOK
		rep.Flows[fi] = v
		rep.Schedulable = rep.Schedulable && v.Schedulable
		rep.Bounded = rep.Bounded && v.Bounded
	}
	return rep, nil
}
