package ringstate

import (
	"slices"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/wire"
)

// FullVerdicts computes the ring's verdicts from scratch, mirroring the
// /v1/analyze computation (core.Report / core.FaultReport on a freshly
// built plant) rather than the incremental engine's cached state. It is
// the test-only reference side of the differential harness: after any
// edit sequence, Engine.Verdicts() must be bit-identical to FullVerdicts
// of the engine's snapshot.
//
// The snapshot is stably sorted into canonical order first, so callers
// may pass streams in any order; ID ties follow input order, exactly as
// the engine places ties in arrival order. Stream handles are left empty
// (stampHandles fills them), so the reference allocates no handle
// strings.
func FullVerdicts(cfg Config, streams []SnapshotStream) ([]wire.Verdict, error) {
	norm, fm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	snap := canonical(streams)
	for _, s := range snap {
		if err := validateStream(s.StreamSpec); err != nil {
			return nil, err
		}
	}
	set := make(message.Set, len(snap))
	for i, s := range snap {
		set[i] = message.Stream{Name: s.Name, Period: s.PeriodMs / 1e3, LengthBits: s.LengthBits}
	}
	bw := ring.Mbps(norm.BandwidthMbps)
	out := make([]wire.Verdict, 0, len(norm.Protocols))
	for _, proto := range norm.Protocols {
		if len(set) == 0 {
			out = append(out, wire.Verdict{Protocol: proto, Schedulable: true})
			continue
		}
		var v wire.Verdict
		if proto == wire.ProtocolTTP {
			v, err = fullTTP(bw, set, fm)
		} else {
			v, err = fullPDP(proto, bw, set, fm)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// canonical returns a copy of streams stably sorted into the canonical
// stream order.
func canonical(streams []SnapshotStream) []SnapshotStream {
	snap := slices.Clone(streams)
	slices.SortStableFunc(snap, func(a, b SnapshotStream) int { return wire.CompareStreams(a.StreamSpec, b.StreamSpec) })
	return snap
}

// stampHandles writes the stream handles into from-scratch verdicts of
// streams: the i-th stream verdict is the i-th stream in canonical order.
func stampHandles(vs []wire.Verdict, streams []SnapshotStream) {
	snap := canonical(streams)
	for _, v := range vs {
		for i := range v.Streams {
			v.Streams[i].ID = wire.StreamHandle(snap[i].ID)
		}
	}
}

// fullPDP mirrors the service's analyzePDP with detail always on.
// Because the set is canonically sorted — which is a stable
// rate-monotonic order — the report's RM-sorted streams align
// index-by-index with the snapshot.
func fullPDP(proto string, bw float64, set message.Set, fm *faults.Model) (wire.Verdict, error) {
	p := core.NewStandardPDP(bw)
	if proto == wire.ProtocolModifiedPDP {
		p = core.NewModifiedPDP(bw)
	}
	if len(set) > p.Net.Stations {
		p.Net = p.Net.WithStations(len(set))
	}
	rep, err := p.Report(set)
	if err != nil {
		return wire.Verdict{}, err
	}
	v := wire.Verdict{
		Protocol:             proto,
		Schedulable:          rep.Schedulable,
		Utilization:          rep.Utilization,
		AugmentedUtilization: rep.AugmentedUtilization,
		Blocking:             rep.Blocking,
		Theta:                rep.Theta,
		FrameTime:            rep.FrameTime,
		Streams:              make([]wire.StreamVerdict, len(rep.Streams)),
	}
	for i, s := range rep.Streams {
		v.Streams[i] = wire.StreamVerdict{
			Name:            s.Stream.Name,
			PeriodMs:        s.Stream.Period * 1e3,
			Frames:          s.Frames,
			AugmentedLength: s.AugmentedLength,
			ResponseTime:    s.ResponseTime,
			Schedulable:     s.Schedulable,
		}
	}
	if fm != nil {
		budget := p.FaultBudgetFor(fm, set)
		deg, err := p.FaultReport(set, budget)
		if err != nil {
			return wire.Verdict{}, err
		}
		v.Degraded = &wire.DegradedVerdict{
			Schedulable:  deg.Schedulable,
			Availability: budget.Availability,
			Losses:       budget.Losses,
			Recovery:     budget.Recovery,
			Blocking:     deg.Blocking,
		}
	}
	return v, nil
}

// fullTTP mirrors the service's analyzeTTP (see fullPDP).
func fullTTP(bw float64, set message.Set, fm *faults.Model) (wire.Verdict, error) {
	t := core.NewTTP(bw)
	if len(set) > t.Net.Stations {
		t.Net = t.Net.WithStations(len(set))
	}
	rep, err := t.Report(set)
	if err != nil {
		return wire.Verdict{}, err
	}
	v := wire.Verdict{
		Protocol:        wire.ProtocolTTP,
		Schedulable:     rep.Schedulable,
		Utilization:     rep.Utilization,
		TTRT:            rep.TTRT,
		Overhead:        rep.Overhead,
		TotalAllocation: rep.TotalAllocation,
		Capacity:        rep.Capacity,
		Streams:         make([]wire.StreamVerdict, len(rep.Streams)),
	}
	for i, s := range rep.Streams {
		v.Streams[i] = wire.StreamVerdict{
			Name:              s.Stream.Name,
			PeriodMs:          s.Stream.Period * 1e3,
			Q:                 s.Q,
			AugmentedLength:   s.AugmentedLength,
			Allocation:        s.Allocation,
			WorstCaseResponse: s.WorstCaseResponse,
			Schedulable:       s.Q >= 2,
		}
	}
	if fm != nil {
		budget := t.FaultBudgetFor(fm, set)
		deg, err := t.FaultReport(set, budget)
		if err != nil {
			return wire.Verdict{}, err
		}
		v.Degraded = &wire.DegradedVerdict{
			Schedulable:     deg.Schedulable,
			Availability:    deg.Availability,
			TotalAllocation: wire.Allocation(deg.TotalAllocation),
			Capacity:        deg.Capacity,
		}
	}
	return v, nil
}
