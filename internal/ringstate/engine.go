package ringstate

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/rma"
)

// Engine is the incremental analysis state of one ring: the resident
// stream set in canonical order plus, per configured protocol, the
// cached scheduling state a single-stream edit can partially reuse.
// Engines are not safe for concurrent use; Store wraps them in per-ring
// locks.
type Engine struct {
	cfg    Config
	bw     float64       // bits per second
	fm     *faults.Model // nil = clean ring
	nextID uint64

	// The resident set in canonical (PeriodMs, LengthBits, Name) order —
	// which is rate-monotonic order, the order the reference analysis
	// sorts into. All three arrays are parallel.
	ids  []uint64
	wire []Stream
	set  message.Set

	util float64 // payload utilization fold, shared by every verdict

	pdps []*pdpEngine
	ttp  *ttpEngine

	stations int // effective station count the plants were built for

	delta Delta // scratch, reused across edits
}

// splice describes one edit's index arithmetic: where a stream left the
// canonical array and/or where one entered it.
type splice struct {
	op   string
	j, k int // remove index (pre-edit coords) and insert index (post-remove coords)
}

// mapIndex translates a pre-edit canonical index to its post-edit
// position, or -1 for the removed/edited stream itself.
func (sp splice) mapIndex(i int) int {
	switch sp.op {
	case OpAdd:
		if i >= sp.k {
			return i + 1
		}
		return i
	case OpRemove:
		switch {
		case i == sp.j:
			return -1
		case i > sp.j:
			return i - 1
		}
		return i
	default: // OpModify: remove at j, then insert at k
		if i == sp.j {
			return -1
		}
		if i > sp.j {
			i--
		}
		if i >= sp.k {
			i++
		}
		return i
	}
}

// editedIndex is the edited stream's post-edit canonical index, or -1
// for a remove.
func (sp splice) editedIndex() int {
	if sp.op == OpRemove {
		return -1
	}
	return sp.k
}

// effStations mirrors the service plant sizing: the paper's 100-station
// plant, grown to the stream count when it exceeds 100.
func effStations(preset, n int) int {
	if n > preset {
		return n
	}
	return preset
}

// NewEngine builds an empty engine for a normalized or raw config.
func NewEngine(cfg Config) (*Engine, error) {
	norm, fm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    norm,
		bw:     ring.Mbps(norm.BandwidthMbps),
		fm:     fm,
		nextID: 1,
	}
	for _, proto := range norm.Protocols {
		if proto == ProtocolTTP {
			e.ttp = &ttpEngine{}
		} else {
			e.pdps = append(e.pdps, &pdpEngine{proto: proto})
		}
	}
	if err := e.rebuildAll(); err != nil {
		return nil, err
	}
	return e, nil
}

// Config returns the normalized ring config.
func (e *Engine) Config() Config { return e.cfg }

// Len returns the resident stream count.
func (e *Engine) Len() int { return len(e.set) }

// Snapshot returns the resident streams with their IDs in canonical
// order (a fresh copy).
func (e *Engine) Snapshot() []SnapshotStream {
	out := make([]SnapshotStream, len(e.wire))
	for i, s := range e.wire {
		out[i] = SnapshotStream{ID: e.ids[i], Stream: s}
	}
	return out
}

// find returns the canonical index of the stream with the given ID, or
// -1.
func (e *Engine) find(id uint64) int {
	for i, v := range e.ids {
		if v == id {
			return i
		}
	}
	return -1
}

// upperBound returns the canonical insertion index for s: after every
// resident stream whose key is ≤ s's key. This matches the stable sort
// of the reference canonicalization: among tied keys, streams stay in
// arrival order.
func (e *Engine) upperBound(s Stream) int {
	i := 0
	for i < len(e.wire) && !canonLess(s, e.wire[i]) {
		i++
	}
	return i
}

// Add admits a stream, returning its assigned ID and the incremental
// verdict delta. The returned Delta aliases engine scratch: valid until
// the next edit. An edit the analysis refuses (a cost or blocking term
// that overflows; an rma error) leaves the engine as it was.
func (e *Engine) Add(s Stream) (uint64, *Delta, error) {
	if err := s.validate(); err != nil {
		return 0, nil, err
	}
	id := e.nextID
	k := e.upperBound(s)
	e.snapshotAll()
	e.spliceIn(k, id, s)
	if err := e.applyEdit(splice{op: OpAdd, k: k}, id); err != nil {
		e.spliceOut(k)
		e.restore()
		return 0, nil, err
	}
	e.nextID++
	return id, &e.delta, nil
}

// Remove evicts the stream with the given ID.
func (e *Engine) Remove(id uint64) (*Delta, error) {
	j := e.find(id)
	if j < 0 {
		return nil, ErrStreamNotFound
	}
	old := e.wire[j]
	e.snapshotAll()
	e.spliceOut(j)
	if err := e.applyEdit(splice{op: OpRemove, j: j}, id); err != nil {
		e.spliceIn(j, id, old)
		e.restore()
		return nil, err
	}
	return &e.delta, nil
}

// Modify replaces the stream with the given ID. The stream keeps its ID
// but takes the canonical position of its new key (after tied keys,
// exactly as a fresh canonicalization of the whole set would place it).
func (e *Engine) Modify(id uint64, s Stream) (*Delta, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	j := e.find(id)
	if j < 0 {
		return nil, ErrStreamNotFound
	}
	old := e.wire[j]
	e.snapshotAll()
	e.spliceOut(j)
	k := e.upperBound(s)
	e.spliceIn(k, id, s)
	if err := e.applyEdit(splice{op: OpModify, j: j, k: k}, id); err != nil {
		e.spliceOut(k)
		e.spliceIn(j, id, old)
		e.restore()
		return nil, err
	}
	return &e.delta, nil
}

// spliceIn inserts stream s with the given ID at canonical index k.
func (e *Engine) spliceIn(k int, id uint64, s Stream) {
	e.ids = append(e.ids, 0)
	copy(e.ids[k+1:], e.ids[k:])
	e.ids[k] = id
	e.wire = append(e.wire, Stream{})
	copy(e.wire[k+1:], e.wire[k:])
	e.wire[k] = s
	e.set = append(e.set, message.Stream{})
	copy(e.set[k+1:], e.set[k:])
	e.set[k] = message.Stream{Name: s.Name, Period: s.PeriodMs / 1e3, LengthBits: s.LengthBits}
}

// restore rebuilds every protocol engine once a refused edit has put the
// canonical arrays back. That set analyzed before the edit, so the
// rebuild cannot fail, and a rebuild is bit-identical to the incremental
// state it replaces (the invariant the differential suite checks).
func (e *Engine) restore() {
	if err := e.rebuildAll(); err != nil {
		panic(err)
	}
}

func (e *Engine) spliceOut(j int) {
	copy(e.ids[j:], e.ids[j+1:])
	e.ids = e.ids[:len(e.ids)-1]
	copy(e.wire[j:], e.wire[j+1:])
	e.wire = e.wire[:len(e.wire)-1]
	copy(e.set[j:], e.set[j+1:])
	e.set = e.set[:len(e.set)-1]
}

// snapshotAll captures the pre-edit per-stream and ring-level verdict
// bits every protocol engine needs for flip detection.
func (e *Engine) snapshotAll() {
	for _, pe := range e.pdps {
		pe.snapshot()
	}
	if e.ttp != nil {
		e.ttp.snapshot()
	}
}

// applyEdit brings every protocol engine up to date after the canonical
// arrays changed, choosing incremental paths where the invalidation
// rules allow and full rebuilds where they do not (station-count
// changes re-plant the ring: Θ and every cost shifts). An error is the
// analysis refusing the new set; the caller undoes the edit.
func (e *Engine) applyEdit(sp splice, id uint64) error {
	st := effStations(ring.PaperStations, len(e.set))
	rebuilt := false
	if st != e.stations {
		if err := e.rebuildAll(); err != nil {
			return err
		}
		rebuilt = true
	} else {
		e.util = e.set.Utilization(e.bw)
		for _, pe := range e.pdps {
			if err := pe.applySplice(e, sp); err != nil {
				return err
			}
		}
		if e.ttp != nil {
			e.ttp.applySplice(e, sp)
		}
	}
	from := sp.from()
	if rebuilt {
		from = 0
	}
	if err := e.checkFinite(from); err != nil {
		return err
	}
	e.buildDelta(sp, id, rebuilt)
	return nil
}

// from is the first post-edit canonical index whose stream or verdict the
// edit can have changed: every stream before it kept its place, and its
// response time, which depends only on streams of higher priority.
func (sp splice) from() int {
	switch sp.op {
	case OpAdd:
		return sp.k
	case OpRemove:
		return sp.j
	default:
		return min(sp.j, sp.k)
	}
}

// checkFinite refuses verdicts the wire cannot carry. It walks the numbers
// Verdicts would report, in the order the service renders them, and
// returns the first NaN or ±Inf as the *json.UnsupportedValueError
// encoding/json would give for it, so a ring answers what /v1/analyze
// answers for the same set. Every accepted edit is checked, so before an
// edit every number is finite, and only the ring-level numbers and the
// per-stream ones from index from on can have changed. Overflow the
// kernel has no error for gets a ring here: costs at a near-zero
// bandwidth (FDDI's terms, a PDP blocking term), or a response time whose
// fixpoint overshoots a period of 1e300 s or more to +Inf. An unbounded
// degraded FDDI allocation is not refused; the service renders it as -1.
func (e *Engine) checkFinite(from int) error {
	if len(e.set) == 0 {
		return nil // an empty ring's verdicts are all zero
	}
	for _, proto := range e.cfg.Protocols {
		var x float64
		bad := false
		if proto == ProtocolTTP {
			x, bad = e.ttp.firstNonFinite(e, from)
		} else {
			for _, pe := range e.pdps {
				if pe.proto == proto {
					x, bad = pe.firstNonFinite(e, from)
				}
			}
		}
		if bad {
			return fmt.Errorf("ringstate: verdicts out of range: %w",
				&json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)})
		}
	}
	return nil
}

// nonFinite returns the first of xs that is NaN or ±Inf.
func nonFinite(xs ...float64) (float64, bool) {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return x, true
		}
	}
	return 0, false
}

// rebuildAll reconstructs every protocol engine from the canonical
// arrays.
func (e *Engine) rebuildAll() error {
	e.stations = effStations(ring.PaperStations, len(e.set))
	e.util = e.set.Utilization(e.bw)
	for _, pe := range e.pdps {
		if err := pe.rebuild(e); err != nil {
			return err
		}
	}
	if e.ttp != nil {
		e.ttp.rebuild(e)
	}
	return nil
}

// appendFlips compares pre/post per-stream verdict bits through the
// splice's index mapping and appends one StreamFlip per changed stream
// (the edited stream itself excluded).
func (e *Engine) appendFlips(sp splice, oldBits, newBits []bool, buf []StreamFlip) []StreamFlip {
	buf = buf[:0]
	for i := range oldBits {
		ni := sp.mapIndex(i)
		if ni < 0 {
			continue
		}
		if newBits[ni] != oldBits[i] {
			buf = append(buf, StreamFlip{ID: e.ids[ni], Name: e.wire[ni].Name, Schedulable: newBits[ni]})
		}
	}
	return buf
}

// buildDelta assembles the scratch Delta after an edit.
func (e *Engine) buildDelta(sp splice, id uint64, rebuilt bool) {
	d := &e.delta
	d.Op = sp.op
	d.StreamID = id
	d.Reprobed = 0
	d.Protocols = d.Protocols[:0]
	ei := sp.editedIndex()
	for _, pe := range e.pdps {
		pd := ProtocolDelta{
			Protocol:       pe.proto,
			Reprobed:       pe.reprobed,
			WasSchedulable: pe.oldRingSched,
			Schedulable:    pe.rta.Schedulable(),
			HasDegraded:    e.fm != nil && len(e.set) > 0,
		}
		if pd.HasDegraded {
			pd.DegradedWasSchedulable = pe.oldDegSched
			pd.DegradedSchedulable = pe.drta.Schedulable()
		}
		if ei >= 0 {
			pd.EditedSchedulable = pe.newSched[ei]
		}
		pd.Flipped = e.appendFlips(sp, pe.oldSched, pe.newSched, pe.flips)
		pe.flips = pd.Flipped
		d.Reprobed += pd.Reprobed
		d.Protocols = append(d.Protocols, pd)
	}
	if te := e.ttp; te != nil {
		pd := ProtocolDelta{
			Protocol:       ProtocolTTP,
			Reprobed:       te.reprobed,
			WasSchedulable: te.oldRingSched,
			Schedulable:    len(e.set) == 0 || te.total <= te.capacity,
			HasDegraded:    e.fm != nil && len(e.set) > 0,
		}
		if pd.HasDegraded {
			pd.DegradedWasSchedulable = te.oldDegSched
			pd.DegradedSchedulable = te.dtotal <= te.capacity
		}
		if ei >= 0 {
			pd.EditedSchedulable = te.newSched[ei]
		}
		pd.Flipped = e.appendFlips(sp, te.oldSched, te.newSched, te.flips)
		te.flips = pd.Flipped
		d.Reprobed += pd.Reprobed
		d.Protocols = append(d.Protocols, pd)
	}
	_ = rebuilt
}

// Verdicts renders the current verdicts in canonical protocol order (a
// fresh allocation; safe to retain). An empty ring is vacuously
// schedulable with zero aggregates, as a from-scratch analysis reports it.
func (e *Engine) Verdicts() []Verdict {
	out := make([]Verdict, 0, len(e.cfg.Protocols))
	for _, proto := range e.cfg.Protocols {
		if proto == ProtocolTTP {
			out = append(out, e.ttp.verdict(e))
		} else {
			for _, pe := range e.pdps {
				if pe.proto == proto {
					out = append(out, pe.verdict(e))
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// PDP: Theorem 4.1 via the incremental response-time workspace.

// pdpEngine caches one PDP variant's per-stream scheduling state. The
// invalidation rule (why each piece is cached or recomputed) is
// documented on applySplice.
type pdpEngine struct {
	proto string
	p     core.PDP

	costs   []float64 // clean C'_i, canonical order
	frames  []int     // K_i
	rta     rma.Incremental
	augUtil float64

	// Degraded mode (engine.fm != nil): the budget's Nloss depends on
	// the whole set's frame rate and max period, so B' — and with it
	// every degraded response time — must be recomputed on any edit
	// that changes it. The per-stream degraded costs C'_i/A are stable
	// while the station count (and thus the availability) holds.
	budget core.FaultBudget
	scale  float64
	dcosts []float64
	drta   rma.Incremental

	// Edit scratch.
	reprobed     int
	oldRingSched bool
	oldDegSched  bool
	oldSched     []bool
	newSched     []bool
	flips        []StreamFlip
}

// pdpFor mirrors the service plant construction exactly.
func pdpFor(proto string, bw float64, n int) core.PDP {
	p := core.NewStandardPDP(bw)
	if proto == ProtocolModifiedPDP {
		p = core.NewModifiedPDP(bw)
	}
	if n > p.Net.Stations {
		p.Net = p.Net.WithStations(n)
	}
	return p
}

func (pe *pdpEngine) snapshot() {
	pe.oldRingSched = pe.rta.Schedulable()
	pe.oldDegSched = pe.drta.Len() > 0 && pe.drta.Schedulable()
	pe.oldSched = pe.oldSched[:0]
	for i := 0; i < pe.rta.Len(); i++ {
		pe.oldSched = append(pe.oldSched, pe.rta.TaskSchedulable(i))
	}
}

func (pe *pdpEngine) fillNewSched() {
	pe.newSched = pe.newSched[:0]
	for i := 0; i < pe.rta.Len(); i++ {
		pe.newSched = append(pe.newSched, pe.rta.TaskSchedulable(i))
	}
}

// refold recomputes the order-sensitive aggregate exactly as the
// reference does: Σ (C'_i · scale) / P_i in canonical order, with the
// clean scale of 1 charged as the identity it is.
func (pe *pdpEngine) refold(e *Engine) {
	pe.augUtil = 0
	for i, c := range pe.costs {
		pe.augUtil += c / e.set[i].Period
	}
}

// rebuild reconstructs the engine from scratch on the current plant. An
// error is an rma refusal: a cost or blocking term that overflowed.
func (pe *pdpEngine) rebuild(e *Engine) error {
	n := len(e.set)
	pe.p = pdpFor(pe.proto, e.bw, n)
	pe.costs = pe.costs[:0]
	pe.frames = pe.frames[:0]
	if err := pe.rta.Reset(pe.p.RecoveryBlocking(core.CleanFaultBudget())); err != nil {
		return err
	}
	pe.reprobed = 0
	for i, s := range e.set {
		cost := pe.p.AugmentedLength(s)
		_, k := pe.p.Frame.Split(s.LengthBits)
		pe.costs = append(pe.costs, cost)
		pe.frames = append(pe.frames, k)
		re, err := pe.rta.Insert(i, rma.Task{Cost: cost, Period: s.Period})
		if err != nil {
			return err
		}
		pe.reprobed += re
	}
	pe.refold(e)
	if err := pe.rebuildDegraded(e); err != nil {
		return err
	}
	pe.fillNewSched()
	return nil
}

func (pe *pdpEngine) rebuildDegraded(e *Engine) error {
	pe.dcosts = pe.dcosts[:0]
	if e.fm == nil || len(e.set) == 0 {
		pe.budget = core.CleanFaultBudget()
		pe.scale = 1
		_ = pe.drta.Reset(0)
		return nil
	}
	pe.budget = pe.p.FaultBudgetFor(e.fm, e.set)
	pe.scale = 1 / pe.budget.Availability
	if err := pe.drta.Reset(pe.p.RecoveryBlocking(pe.budget)); err != nil {
		return err
	}
	for i, s := range e.set {
		dc := pe.costs[i] * pe.scale
		pe.dcosts = append(pe.dcosts, dc)
		re, err := pe.drta.Insert(i, rma.Task{Cost: dc, Period: s.Period})
		if err != nil {
			return err
		}
		pe.reprobed += re
	}
	return nil
}

// applySplice is the incremental PDP edit. Invalidation rule: a clean
// response time depends only on the blocking term and on streams at
// strictly higher RM priority, so the edit at canonical index k
// re-probes indices ≥ k and reuses the prefix verbatim. The degraded
// blocking B' = B + Nloss·R folds the whole set's frame rate, so any
// edit can move it — when it does, the degraded pass re-probes
// everything (Rebase); when it does not (bitwise), the suffix re-probe
// from the splice suffices. An error is an rma refusal, as in rebuild.
func (pe *pdpEngine) applySplice(e *Engine, sp splice) error {
	pe.reprobed = 0
	if e.fm != nil && len(e.set) > 0 {
		// Refresh the budget BEFORE splicing: insertAt prices the new
		// stream's degraded cost with pe.scale, which is stale coming off
		// an empty ring (scale 1). The availability itself is a pure
		// function of (model, stations), so resident dcosts stay valid —
		// a stations change takes the rebuild path instead.
		pe.budget = pe.p.FaultBudgetFor(e.fm, e.set)
		pe.scale = 1 / pe.budget.Availability
	}
	switch sp.op {
	case OpAdd:
		if err := pe.insertAt(e, sp.k); err != nil {
			return err
		}
	case OpRemove:
		pe.removeAt(sp.j)
	default:
		pe.removeAt(sp.j)
		if err := pe.insertAt(e, sp.k); err != nil {
			return err
		}
	}
	pe.refold(e)
	if e.fm != nil {
		if len(e.set) == 0 {
			if err := pe.rebuildDegraded(e); err != nil {
				return err
			}
		} else {
			newBlocking := pe.p.RecoveryBlocking(pe.budget)
			if math.Float64bits(newBlocking) != math.Float64bits(pe.drta.Blocking()) {
				re, err := pe.drta.Rebase(newBlocking)
				if err != nil {
					return err
				}
				pe.reprobed += re
			}
		}
	}
	pe.fillNewSched()
	return nil
}

func (pe *pdpEngine) insertAt(e *Engine, k int) error {
	s := e.set[k]
	cost := pe.p.AugmentedLength(s)
	_, kf := pe.p.Frame.Split(s.LengthBits)
	pe.costs = append(pe.costs, 0)
	copy(pe.costs[k+1:], pe.costs[k:])
	pe.costs[k] = cost
	pe.frames = append(pe.frames, 0)
	copy(pe.frames[k+1:], pe.frames[k:])
	pe.frames[k] = kf
	re, err := pe.rta.Insert(k, rma.Task{Cost: cost, Period: s.Period})
	if err != nil {
		return err
	}
	pe.reprobed += re
	if e.fm != nil {
		dc := cost * pe.scale
		pe.dcosts = append(pe.dcosts, 0)
		copy(pe.dcosts[k+1:], pe.dcosts[k:])
		pe.dcosts[k] = dc
		re, err := pe.drta.Insert(k, rma.Task{Cost: dc, Period: s.Period})
		if err != nil {
			return err
		}
		pe.reprobed += re
	}
	return nil
}

func (pe *pdpEngine) removeAt(j int) {
	copy(pe.costs[j:], pe.costs[j+1:])
	pe.costs = pe.costs[:len(pe.costs)-1]
	copy(pe.frames[j:], pe.frames[j+1:])
	pe.frames = pe.frames[:len(pe.frames)-1]
	re, err := pe.rta.Remove(j)
	if err != nil {
		panic(err)
	}
	pe.reprobed += re
	if len(pe.dcosts) > 0 {
		copy(pe.dcosts[j:], pe.dcosts[j+1:])
		pe.dcosts = pe.dcosts[:len(pe.dcosts)-1]
		re, err := pe.drta.Remove(j)
		if err != nil {
			panic(err)
		}
		pe.reprobed += re
	}
}

func (pe *pdpEngine) verdict(e *Engine) Verdict {
	if len(e.set) == 0 {
		return Verdict{Protocol: pe.proto, Schedulable: true}
	}
	v := Verdict{
		Protocol:             pe.proto,
		Schedulable:          pe.rta.Schedulable(),
		Utilization:          e.util,
		AugmentedUtilization: pe.augUtil,
		Blocking:             pe.rta.Blocking(),
		Theta:                pe.p.Net.Theta(),
		FrameTime:            pe.p.Frame.Time(pe.p.Net.BandwidthBPS),
		Streams:              make([]StreamVerdict, len(e.set)),
	}
	for i, s := range e.set {
		v.Streams[i] = StreamVerdict{
			ID:              e.ids[i],
			Name:            s.Name,
			PeriodMs:        s.Period * 1e3,
			Frames:          pe.frames[i],
			AugmentedLength: pe.costs[i],
			ResponseTime:    pe.rta.ResponseTime(i),
			Schedulable:     pe.rta.TaskSchedulable(i),
		}
	}
	if e.fm != nil {
		v.Degraded = &DegradedVerdict{
			Schedulable:  pe.drta.Schedulable(),
			Availability: pe.budget.Availability,
			Losses:       pe.budget.Losses,
			Recovery:     pe.budget.Recovery,
			Blocking:     pe.drta.Blocking(),
		}
	}
	return v
}

// firstNonFinite returns the first NaN or ±Inf among the numbers verdict
// reports, in its field order, skipping the streams before index from.
func (pe *pdpEngine) firstNonFinite(e *Engine, from int) (float64, bool) {
	if x, bad := nonFinite(e.util, pe.augUtil, pe.rta.Blocking(), pe.p.Net.Theta(), pe.p.Frame.Time(pe.p.Net.BandwidthBPS)); bad {
		return x, true
	}
	if e.fm != nil {
		if x, bad := nonFinite(pe.budget.Availability, pe.budget.Losses, pe.budget.Recovery, pe.drta.Blocking()); bad {
			return x, true
		}
	}
	for i := from; i < len(e.set); i++ {
		if x, bad := nonFinite(e.set[i].Period*1e3, pe.costs[i], pe.rta.ResponseTime(i)); bad {
			return x, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// TTP: Theorem 5.1 with O(1) per-stream terms and a re-folded aggregate.

// ttpEngine caches the FDDI allocation state. Invalidation rule: each
// stream's (q, C', h, wcr) is a pure function of (stream, TTRT,
// availability), so a single edit recomputes one stream's terms —
// unless TTRT moved (the edit changed the minimum period) or the
// fault-budget availability moved (loss fraction is TTRT-coupled), in
// which case every per-stream term is recomputed. The aggregate Σh is
// re-folded in canonical order either way.
type ttpEngine struct {
	t        core.TTP
	overhead float64
	fovhd    float64
	ttrt     float64
	capacity float64

	q     []int
	cAug  []float64
	h     []float64
	wcr   []float64
	total float64

	budget core.FaultBudget
	avail  float64
	dq     []int
	dcAug  []float64
	dh     []float64
	dwcr   []float64
	dtotal float64

	reprobed     int
	recomputed   bool // the last splice recomputed every clean term
	oldRingSched bool
	oldDegSched  bool
	oldSched     []bool
	newSched     []bool
	flips        []StreamFlip
}

// ttpFor mirrors the service plant construction exactly.
func ttpFor(bw float64, n int) core.TTP {
	t := core.NewTTP(bw)
	if n > t.Net.Stations {
		t.Net = t.Net.WithStations(n)
	}
	return t
}

// terms is stream s's Theorem 5.1 term, computed by the analyzer's own
// per-stream function.
func (te *ttpEngine) terms(s message.Stream, avail float64) (q int, cAug, h, wcr float64) {
	return core.TTPStreamTerm(s.Length(te.t.Net.BandwidthBPS), s.Period, te.ttrt, te.fovhd, avail)
}

func (te *ttpEngine) snapshot() {
	te.oldRingSched = len(te.q) == 0 || te.total <= te.capacity
	te.oldDegSched = len(te.dq) > 0 && te.dtotal <= te.capacity
	te.oldSched = te.oldSched[:0]
	for _, q := range te.q {
		te.oldSched = append(te.oldSched, q >= 2)
	}
}

func (te *ttpEngine) fillNewSched() {
	te.newSched = te.newSched[:0]
	for _, q := range te.q {
		te.newSched = append(te.newSched, q >= 2)
	}
}

func (te *ttpEngine) refold() {
	te.total = 0
	for _, h := range te.h {
		te.total += h
	}
	te.dtotal = 0
	for _, h := range te.dh {
		te.dtotal += h
	}
}

func (te *ttpEngine) rebuild(e *Engine) {
	n := len(e.set)
	te.t = ttpFor(e.bw, n)
	te.overhead = te.t.Overhead()
	te.fovhd = te.t.SyncFrame.OvhdTime(te.t.Net.BandwidthBPS)
	te.q = te.q[:0]
	te.cAug = te.cAug[:0]
	te.h = te.h[:0]
	te.wcr = te.wcr[:0]
	te.dq = te.dq[:0]
	te.dcAug = te.dcAug[:0]
	te.dh = te.dh[:0]
	te.dwcr = te.dwcr[:0]
	te.reprobed = 0
	if n == 0 {
		te.ttrt, te.capacity, te.total, te.dtotal = 0, 0, 0, 0
		te.avail = 1
		te.budget = core.CleanFaultBudget()
		te.fillNewSched()
		return
	}
	te.ttrt = te.t.SelectTTRT(e.set)
	te.capacity = te.ttrt - te.overhead
	te.recomputeClean(e)
	if e.fm != nil {
		te.budget = te.t.FaultBudgetFor(e.fm, e.set)
		te.avail = te.budget.Availability
		te.recomputeDegraded(e)
	} else {
		te.avail = 1
	}
	te.refold()
	te.fillNewSched()
}

func (te *ttpEngine) recomputeClean(e *Engine) {
	te.q = te.q[:0]
	te.cAug = te.cAug[:0]
	te.h = te.h[:0]
	te.wcr = te.wcr[:0]
	for _, s := range e.set {
		q, c, h, w := te.terms(s, 1)
		te.q = append(te.q, q)
		te.cAug = append(te.cAug, c)
		te.h = append(te.h, h)
		te.wcr = append(te.wcr, w)
	}
	te.reprobed += len(e.set)
}

func (te *ttpEngine) recomputeDegraded(e *Engine) {
	te.dq = te.dq[:0]
	te.dcAug = te.dcAug[:0]
	te.dh = te.dh[:0]
	te.dwcr = te.dwcr[:0]
	for _, s := range e.set {
		q, c, h, w := te.terms(s, te.avail)
		te.dq = append(te.dq, q)
		te.dcAug = append(te.dcAug, c)
		te.dh = append(te.dh, h)
		te.dwcr = append(te.dwcr, w)
	}
	te.reprobed += len(e.set)
}

func (te *ttpEngine) applySplice(e *Engine, sp splice) {
	te.reprobed = 0
	if len(e.set) == 0 {
		te.rebuild(e)
		return
	}
	newTTRT := te.t.SelectTTRT(e.set)
	ttrtMoved := math.Float64bits(newTTRT) != math.Float64bits(te.ttrt)
	te.recomputed = ttrtMoved
	if ttrtMoved {
		te.ttrt = newTTRT
		te.capacity = te.ttrt - te.overhead
		te.recomputeClean(e)
	} else {
		te.spliceClean(e, sp)
	}
	if e.fm != nil {
		te.budget = te.t.FaultBudgetFor(e.fm, e.set)
		availMoved := math.Float64bits(te.budget.Availability) != math.Float64bits(te.avail)
		te.avail = te.budget.Availability
		if ttrtMoved || availMoved {
			te.recomputeDegraded(e)
		} else {
			te.spliceDegraded(e, sp)
		}
	}
	te.refold()
	te.fillNewSched()
}

func (te *ttpEngine) spliceClean(e *Engine, sp splice) {
	switch sp.op {
	case OpAdd:
		te.insertClean(e, sp.k)
	case OpRemove:
		removeInt(&te.q, sp.j)
		removeF64(&te.cAug, sp.j)
		removeF64(&te.h, sp.j)
		removeF64(&te.wcr, sp.j)
	default:
		removeInt(&te.q, sp.j)
		removeF64(&te.cAug, sp.j)
		removeF64(&te.h, sp.j)
		removeF64(&te.wcr, sp.j)
		te.insertClean(e, sp.k)
	}
}

func (te *ttpEngine) insertClean(e *Engine, k int) {
	q, c, h, w := te.terms(e.set[k], 1)
	insertInt(&te.q, k, q)
	insertF64(&te.cAug, k, c)
	insertF64(&te.h, k, h)
	insertF64(&te.wcr, k, w)
	te.reprobed++
}

func (te *ttpEngine) spliceDegraded(e *Engine, sp splice) {
	switch sp.op {
	case OpAdd:
		te.insertDegraded(e, sp.k)
	case OpRemove:
		removeInt(&te.dq, sp.j)
		removeF64(&te.dcAug, sp.j)
		removeF64(&te.dh, sp.j)
		removeF64(&te.dwcr, sp.j)
	default:
		removeInt(&te.dq, sp.j)
		removeF64(&te.dcAug, sp.j)
		removeF64(&te.dh, sp.j)
		removeF64(&te.dwcr, sp.j)
		te.insertDegraded(e, sp.k)
	}
}

func (te *ttpEngine) insertDegraded(e *Engine, k int) {
	q, c, h, w := te.terms(e.set[k], te.avail)
	insertInt(&te.dq, k, q)
	insertF64(&te.dcAug, k, c)
	insertF64(&te.dh, k, h)
	insertF64(&te.dwcr, k, w)
	te.reprobed++
}

func (te *ttpEngine) verdict(e *Engine) Verdict {
	if len(e.set) == 0 {
		return Verdict{Protocol: ProtocolTTP, Schedulable: true}
	}
	v := Verdict{
		Protocol:        ProtocolTTP,
		Schedulable:     te.total <= te.capacity,
		Utilization:     e.util,
		TTRT:            te.ttrt,
		Overhead:        te.overhead,
		TotalAllocation: te.total,
		Capacity:        te.capacity,
		Streams:         make([]StreamVerdict, len(e.set)),
	}
	for i, s := range e.set {
		v.Streams[i] = StreamVerdict{
			ID:                e.ids[i],
			Name:              s.Name,
			PeriodMs:          s.Period * 1e3,
			Q:                 te.q[i],
			AugmentedLength:   te.cAug[i],
			Allocation:        te.h[i],
			WorstCaseResponse: te.wcr[i],
			Schedulable:       te.q[i] >= 2,
		}
	}
	if e.fm != nil {
		v.Degraded = &DegradedVerdict{
			Schedulable:     te.dtotal <= te.capacity,
			Availability:    te.avail,
			TotalAllocation: te.dtotal,
			Capacity:        te.capacity,
		}
	}
	return v
}

// firstNonFinite is pdpEngine.firstNonFinite for the FDDI verdict. An
// edit that moved TTRT recomputed every stream's terms, so all are walked.
func (te *ttpEngine) firstNonFinite(e *Engine, from int) (float64, bool) {
	if x, bad := nonFinite(e.util, te.ttrt, te.overhead, te.total, te.capacity); bad {
		return x, true
	}
	if e.fm != nil {
		dtotal := te.dtotal
		if math.IsInf(dtotal, 1) {
			dtotal = -1 // the wire's unbounded Σh
		}
		if x, bad := nonFinite(te.avail, dtotal, te.capacity); bad {
			return x, true
		}
	}
	if te.recomputed {
		from = 0
	}
	for i := from; i < len(e.set); i++ {
		if x, bad := nonFinite(e.set[i].Period*1e3, te.cAug[i], te.h[i], te.wcr[i]); bad {
			return x, true
		}
	}
	return 0, false
}

// Splice helpers shared by the TTP arrays.

func insertF64(a *[]float64, i int, v float64) {
	*a = append(*a, 0)
	copy((*a)[i+1:], (*a)[i:])
	(*a)[i] = v
}

func removeF64(a *[]float64, i int) {
	copy((*a)[i:], (*a)[i+1:])
	*a = (*a)[:len(*a)-1]
}

func insertInt(a *[]int, i, v int) {
	*a = append(*a, 0)
	copy((*a)[i+1:], (*a)[i:])
	(*a)[i] = v
}

func removeInt(a *[]int, i int) {
	copy((*a)[i:], (*a)[i+1:])
	*a = (*a)[:len(*a)-1]
}
