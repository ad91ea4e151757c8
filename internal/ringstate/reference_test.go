package ringstate

import (
	"sort"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/message"
	"ringsched/internal/ring"
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
// the engine places ties in arrival order.
func FullVerdicts(cfg Config, streams []SnapshotStream) ([]Verdict, error) {
	norm, fm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	snap := append([]SnapshotStream(nil), streams...)
	sort.SliceStable(snap, func(i, j int) bool { return canonLess(snap[i].Stream, snap[j].Stream) })
	for _, s := range snap {
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	set := make(message.Set, len(snap))
	for i, s := range snap {
		set[i] = message.Stream{Name: s.Name, Period: s.PeriodMs / 1e3, LengthBits: s.LengthBits}
	}
	bw := ring.Mbps(norm.BandwidthMbps)
	out := make([]Verdict, 0, len(norm.Protocols))
	for _, proto := range norm.Protocols {
		if len(set) == 0 {
			out = append(out, Verdict{Protocol: proto, Schedulable: true})
			continue
		}
		var v Verdict
		if proto == ProtocolTTP {
			v, err = fullTTP(bw, set, snap, fm)
		} else {
			v, err = fullPDP(proto, bw, set, snap, fm)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// fullPDP mirrors the service's analyzePDP with detail always on and
// ring-assigned IDs attached. Because the set is canonically sorted —
// which is a stable rate-monotonic order — the report's RM-sorted
// streams align index-by-index with the snapshot.
func fullPDP(proto string, bw float64, set message.Set, snap []SnapshotStream, fm *faults.Model) (Verdict, error) {
	p := core.NewStandardPDP(bw)
	if proto == ProtocolModifiedPDP {
		p = core.NewModifiedPDP(bw)
	}
	if len(set) > p.Net.Stations {
		p.Net = p.Net.WithStations(len(set))
	}
	rep, err := p.Report(set)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{
		Protocol:             proto,
		Schedulable:          rep.Schedulable,
		Utilization:          rep.Utilization,
		AugmentedUtilization: rep.AugmentedUtilization,
		Blocking:             rep.Blocking,
		Theta:                rep.Theta,
		FrameTime:            rep.FrameTime,
		Streams:              make([]StreamVerdict, len(rep.Streams)),
	}
	for i, s := range rep.Streams {
		v.Streams[i] = StreamVerdict{
			ID:              snap[i].ID,
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
			return Verdict{}, err
		}
		v.Degraded = &DegradedVerdict{
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
func fullTTP(bw float64, set message.Set, snap []SnapshotStream, fm *faults.Model) (Verdict, error) {
	t := core.NewTTP(bw)
	if len(set) > t.Net.Stations {
		t.Net = t.Net.WithStations(len(set))
	}
	rep, err := t.Report(set)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{
		Protocol:        ProtocolTTP,
		Schedulable:     rep.Schedulable,
		Utilization:     rep.Utilization,
		TTRT:            rep.TTRT,
		Overhead:        rep.Overhead,
		TotalAllocation: rep.TotalAllocation,
		Capacity:        rep.Capacity,
		Streams:         make([]StreamVerdict, len(rep.Streams)),
	}
	for i, s := range rep.Streams {
		v.Streams[i] = StreamVerdict{
			ID:                snap[i].ID,
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
			return Verdict{}, err
		}
		v.Degraded = &DegradedVerdict{
			Schedulable:     deg.Schedulable,
			Availability:    deg.Availability,
			TotalAllocation: deg.TotalAllocation,
			Capacity:        deg.Capacity,
		}
	}
	return v, nil
}
