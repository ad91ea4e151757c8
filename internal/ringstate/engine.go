package ringstate

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"

	"ringsched/internal/core"
	"ringsched/internal/faults"
	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/rma"
	"ringsched/internal/wire"
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
	ids   []uint64
	specs []wire.StreamSpec
	set   message.Set

	util float64 // payload utilization fold, shared by every verdict

	pdps []*pdpEngine
	ttp  *ttpEngine

	stations int // effective station count the plants were built for

	delta Delta // scratch, reused across edits
}

// splice describes one edit's index arithmetic: the stream at canonical
// index j left (none when j < 0), and the added or modified stream
// entered at index k of the array that remained (none when k < 0, a
// remove). op is only the Delta's label.
type splice struct {
	op   string
	j, k int
}

// mapIndex translates a pre-edit canonical index to its post-edit
// position, or -1 for the stream that left.
func (sp splice) mapIndex(i int) int {
	if i == sp.j {
		return -1
	}
	if sp.j >= 0 && i > sp.j {
		i--
	}
	if sp.k >= 0 && i >= sp.k {
		i++
	}
	return i
}

// from is the first post-edit canonical index whose stream or verdict the
// edit can have changed: every stream before it kept its place, and its
// response time, which depends only on streams of higher priority.
func (sp splice) from() int {
	if sp.j < 0 || sp.k >= 0 && sp.k < sp.j {
		return sp.k
	}
	return sp.j
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
		switch proto {
		case wire.ProtocolTTP:
			e.ttp = &ttpEngine{}
		case wire.ProtocolModifiedPDP:
			e.pdps = append(e.pdps, &pdpEngine{proto: proto, variant: core.Modified8025})
		default:
			e.pdps = append(e.pdps, &pdpEngine{proto: proto, variant: core.Standard8025})
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
	out := make([]SnapshotStream, len(e.specs))
	for i, s := range e.specs {
		out[i] = SnapshotStream{ID: e.ids[i], StreamSpec: s}
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
func (e *Engine) upperBound(s wire.StreamSpec) int {
	i := 0
	for i < len(e.specs) && wire.CompareStreams(s, e.specs[i]) >= 0 {
		i++
	}
	return i
}

// Add admits a stream, returning its assigned ID and the incremental
// verdict delta. The returned Delta aliases engine scratch: valid until
// the next edit. An edit the analysis refuses (a cost or blocking term
// that overflows; an rma error) leaves the engine as it was.
func (e *Engine) Add(s wire.StreamSpec) (uint64, *Delta, error) {
	if err := validateStream(s); err != nil {
		return 0, nil, err
	}
	id := e.nextID
	d, err := e.edit(OpAdd, -1, id, s)
	if err != nil {
		return 0, nil, err
	}
	e.nextID++
	return id, d, nil
}

// Remove evicts the stream with the given ID.
func (e *Engine) Remove(id uint64) (*Delta, error) {
	j := e.find(id)
	if j < 0 {
		return nil, ErrStreamNotFound
	}
	return e.edit(OpRemove, j, id, wire.StreamSpec{})
}

// Modify replaces the stream with the given ID. The stream keeps its ID
// but takes the canonical position of its new key (after tied keys,
// exactly as a fresh canonicalization of the whole set would place it).
func (e *Engine) Modify(id uint64, s wire.StreamSpec) (*Delta, error) {
	if err := validateStream(s); err != nil {
		return nil, err
	}
	j := e.find(id)
	if j < 0 {
		return nil, ErrStreamNotFound
	}
	return e.edit(OpModify, j, id, s)
}

// edit is every edit's one path: the stream at canonical index j leaves
// (none when j < 0), s enters under id at its canonical place unless op
// is a remove, and every protocol engine catches up. An edit the analysis
// refuses puts the canonical arrays back and rebuilds from them: that set
// analyzed before the edit, so the rebuild cannot fail, and it is
// bit-identical to the incremental state it replaces (the invariant the
// differential suite checks).
func (e *Engine) edit(op string, j int, id uint64, s wire.StreamSpec) (*Delta, error) {
	sp := splice{op: op, j: j, k: -1}
	e.snapshotAll()
	var old wire.StreamSpec
	if j >= 0 {
		old = e.specs[j]
		e.spliceOut(j)
	}
	if op != OpRemove {
		sp.k = e.upperBound(s)
		e.spliceIn(sp.k, id, s)
	}
	if err := e.applyEdit(sp, id); err != nil {
		if sp.k >= 0 {
			e.spliceOut(sp.k)
		}
		if j >= 0 {
			e.spliceIn(j, id, old)
		}
		if rerr := e.rebuildAll(); rerr != nil {
			panic(rerr)
		}
		return nil, err
	}
	return &e.delta, nil
}

// spliceIn inserts stream s with the given ID at canonical index k.
func (e *Engine) spliceIn(k int, id uint64, s wire.StreamSpec) {
	e.ids = slices.Insert(e.ids, k, id)
	e.specs = slices.Insert(e.specs, k, s)
	e.set = slices.Insert(e.set, k, message.Stream{Name: s.Name, Period: s.PeriodMs / 1e3, LengthBits: s.LengthBits})
}

// spliceOut deletes the stream at canonical index j.
func (e *Engine) spliceOut(j int) {
	e.ids = slices.Delete(e.ids, j, j+1)
	e.specs = slices.Delete(e.specs, j, j+1)
	e.set = slices.Delete(e.set, j, j+1)
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
	st := core.Stations(ring.PaperStations, len(e.set))
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
	e.buildDelta(sp, id)
	return nil
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
// degraded FDDI allocation is not refused; the wire renders it as -1.
func (e *Engine) checkFinite(from int) error {
	if len(e.set) == 0 {
		return nil // an empty ring's verdicts are all zero
	}
	for _, proto := range e.cfg.Protocols {
		var x float64
		bad := false
		if proto == wire.ProtocolTTP {
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
	e.stations = core.Stations(ring.PaperStations, len(e.set))
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
			buf = append(buf, StreamFlip{ID: e.ids[ni], Name: e.specs[ni].Name, Schedulable: newBits[ni]})
		}
	}
	return buf
}

// buildDelta assembles the scratch Delta after an edit.
func (e *Engine) buildDelta(sp splice, id uint64) {
	d := &e.delta
	d.Op = sp.op
	d.StreamID = id
	d.Reprobed = 0
	d.Protocols = d.Protocols[:0]
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
		if sp.k >= 0 {
			pd.EditedSchedulable = pe.newSched[sp.k]
		}
		pd.Flipped = e.appendFlips(sp, pe.oldSched, pe.newSched, pe.flips)
		pe.flips = pd.Flipped
		d.Reprobed += pd.Reprobed
		d.Protocols = append(d.Protocols, pd)
	}
	if te := e.ttp; te != nil {
		pd := ProtocolDelta{
			Protocol:       wire.ProtocolTTP,
			Reprobed:       te.reprobed,
			WasSchedulable: te.oldRingSched,
			Schedulable:    len(e.set) == 0 || te.clean.total <= te.capacity,
			HasDegraded:    e.fm != nil && len(e.set) > 0,
		}
		if pd.HasDegraded {
			pd.DegradedWasSchedulable = te.oldDegSched
			pd.DegradedSchedulable = te.deg.total <= te.capacity
		}
		if sp.k >= 0 {
			pd.EditedSchedulable = te.newSched[sp.k]
		}
		pd.Flipped = e.appendFlips(sp, te.oldSched, te.newSched, te.flips)
		te.flips = pd.Flipped
		d.Reprobed += pd.Reprobed
		d.Protocols = append(d.Protocols, pd)
	}
}

// Verdicts renders the current verdicts in canonical protocol order, in
// their wire form: stream handles in, an unbounded degraded Σh as -1 (a
// fresh allocation; safe to retain). An empty ring is vacuously
// schedulable with zero aggregates, as a from-scratch analysis reports it.
func (e *Engine) Verdicts() []wire.Verdict {
	// NewEngine builds the PDP engines in canonical protocol order, and
	// FDDI is last in it.
	out := make([]wire.Verdict, 0, len(e.cfg.Protocols))
	for _, pe := range e.pdps {
		out = append(out, pe.verdict(e))
	}
	if e.ttp != nil {
		out = append(out, e.ttp.verdict(e))
	}
	return out
}

// ---------------------------------------------------------------------------
// PDP: Theorem 4.1 via the incremental response-time workspace.

// pdpEngine caches one PDP variant's per-stream scheduling state. The
// invalidation rule (why each piece is cached or recomputed) is
// documented on applySplice.
type pdpEngine struct {
	proto   string
	variant core.Variant
	p       core.PDP

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
	pe.p = core.PDPFor(ring.IEEE8025(e.bw), pe.variant, n)
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
		re, err := pe.rta.Splice(-1, i, rma.Task{Cost: cost, Period: s.Period}, pe.rta.Blocking())
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
		re, err := pe.drta.Splice(-1, i, rma.Task{Cost: dc, Period: s.Period}, pe.drta.Blocking())
		if err != nil {
			return err
		}
		pe.reprobed += re
	}
	return nil
}

// applySplice is the incremental PDP edit: one Splice per pass.
// Invalidation rule: a clean response time depends only on the blocking
// term and on streams at strictly higher RM priority, so the clean pass
// re-probes from the first edited index and reuses the prefix verbatim.
// The degraded blocking B' = B + Nloss·R folds the whole set's frame
// rate, so any edit can move it; the degraded pass installs the new B',
// and re-probes everything when its bits moved and only the suffix when
// they did not. An error is an rma refusal, as in rebuild.
func (pe *pdpEngine) applySplice(e *Engine, sp splice) error {
	var t rma.Task
	if sp.j >= 0 {
		pe.costs = slices.Delete(pe.costs, sp.j, sp.j+1)
		pe.frames = slices.Delete(pe.frames, sp.j, sp.j+1)
	}
	if sp.k >= 0 {
		s := e.set[sp.k]
		_, kf := pe.p.Frame.Split(s.LengthBits)
		t = rma.Task{Cost: pe.p.AugmentedLength(s), Period: s.Period}
		pe.costs = slices.Insert(pe.costs, sp.k, t.Cost)
		pe.frames = slices.Insert(pe.frames, sp.k, kf)
	}
	re, err := pe.rta.Splice(sp.j, sp.k, t, pe.rta.Blocking())
	if err != nil {
		return err
	}
	pe.reprobed = re
	pe.refold(e)
	if e.fm != nil {
		if err := pe.spliceDegraded(e, sp, t); err != nil {
			return err
		}
	}
	pe.fillNewSched()
	return nil
}

// spliceDegraded is applySplice's degraded pass; t is the entering
// stream's clean task.
func (pe *pdpEngine) spliceDegraded(e *Engine, sp splice, t rma.Task) error {
	if len(e.set) == 0 {
		return pe.rebuildDegraded(e)
	}
	// Refresh the budget before pricing the entering stream's degraded
	// cost: pe.scale is stale coming off an empty ring (scale 1). The
	// availability itself is a pure function of (model, stations), so
	// resident dcosts stay valid — a stations change takes the rebuild
	// path instead.
	pe.budget = pe.p.FaultBudgetFor(e.fm, e.set)
	pe.scale = 1 / pe.budget.Availability
	if sp.j >= 0 {
		pe.dcosts = slices.Delete(pe.dcosts, sp.j, sp.j+1)
	}
	if sp.k >= 0 {
		t.Cost *= pe.scale
		pe.dcosts = slices.Insert(pe.dcosts, sp.k, t.Cost)
	}
	re, err := pe.drta.Splice(sp.j, sp.k, t, pe.p.RecoveryBlocking(pe.budget))
	pe.reprobed += re
	return err
}

func (pe *pdpEngine) verdict(e *Engine) wire.Verdict {
	if len(e.set) == 0 {
		return wire.Verdict{Protocol: pe.proto, Schedulable: true}
	}
	v := wire.Verdict{
		Protocol:             pe.proto,
		Schedulable:          pe.rta.Schedulable(),
		Utilization:          e.util,
		AugmentedUtilization: pe.augUtil,
		Blocking:             pe.rta.Blocking(),
		Theta:                pe.p.Net.Theta(),
		FrameTime:            pe.p.Frame.Time(pe.p.Net.BandwidthBPS),
		Streams:              make([]wire.StreamVerdict, len(e.set)),
	}
	for i, s := range e.set {
		v.Streams[i] = wire.StreamVerdict{
			ID:              wire.StreamHandle(e.ids[i]),
			Name:            s.Name,
			PeriodMs:        s.Period * 1e3,
			Frames:          pe.frames[i],
			AugmentedLength: pe.costs[i],
			ResponseTime:    pe.rta.ResponseTime(i),
			Schedulable:     pe.rta.TaskSchedulable(i),
		}
	}
	if e.fm != nil {
		v.Degraded = &wire.DegradedVerdict{
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

	// clean holds the terms at availability 1, deg at the fault budget's
	// availability avail (empty on a clean ring).
	clean  ttpTerms
	budget core.FaultBudget
	avail  float64
	deg    ttpTerms

	reprobed     int
	recomputed   bool // the last splice recomputed every clean term
	oldRingSched bool
	oldDegSched  bool
	oldSched     []bool
	newSched     []bool
	flips        []StreamFlip
}

// ttpTerms is one table of Theorem 5.1 terms at one availability: each
// stream's (q, C', h, wcr) in canonical order, and Σh.
type ttpTerms struct {
	q            []int
	cAug, h, wcr []float64
	total        float64
}

// terms is stream s's Theorem 5.1 term, computed by the analyzer's own
// per-stream function.
func (te *ttpEngine) terms(s message.Stream, avail float64) (q int, cAug, h, wcr float64) {
	return core.TTPStreamTerm(s.Length(te.t.Net.BandwidthBPS), s.Period, te.ttrt, te.fovhd, avail)
}

// clear empties the table.
func (tt *ttpTerms) clear() {
	tt.q, tt.cAug, tt.h, tt.wcr = tt.q[:0], tt.cAug[:0], tt.h[:0], tt.wcr[:0]
	tt.total = 0
}

// insert computes s's terms at avail into canonical index k.
func (tt *ttpTerms) insert(te *ttpEngine, s message.Stream, k int, avail float64) {
	q, c, h, w := te.terms(s, avail)
	tt.q = slices.Insert(tt.q, k, q)
	tt.cAug = slices.Insert(tt.cAug, k, c)
	tt.h = slices.Insert(tt.h, k, h)
	tt.wcr = slices.Insert(tt.wcr, k, w)
	te.reprobed++
}

// recompute refills the table with every stream's terms at avail.
func (tt *ttpTerms) recompute(te *ttpEngine, set message.Set, avail float64) {
	tt.clear()
	for k, s := range set {
		tt.insert(te, s, k, avail)
	}
}

// splice applies one edit: the leaving stream's terms go and the
// entering stream's come in, computed at avail.
func (tt *ttpTerms) splice(te *ttpEngine, set message.Set, sp splice, avail float64) {
	if sp.j >= 0 {
		tt.q = slices.Delete(tt.q, sp.j, sp.j+1)
		tt.cAug = slices.Delete(tt.cAug, sp.j, sp.j+1)
		tt.h = slices.Delete(tt.h, sp.j, sp.j+1)
		tt.wcr = slices.Delete(tt.wcr, sp.j, sp.j+1)
	}
	if sp.k >= 0 {
		tt.insert(te, set[sp.k], sp.k, avail)
	}
}

// refold re-sums Σh in canonical order.
func (tt *ttpTerms) refold() {
	tt.total = 0
	for _, h := range tt.h {
		tt.total += h
	}
}

// appendSched appends each stream's verdict (q ≥ 2) to buf.
func (tt *ttpTerms) appendSched(buf []bool) []bool {
	for _, q := range tt.q {
		buf = append(buf, q >= 2)
	}
	return buf
}

func (te *ttpEngine) snapshot() {
	te.oldRingSched = len(te.clean.q) == 0 || te.clean.total <= te.capacity
	te.oldDegSched = len(te.deg.q) > 0 && te.deg.total <= te.capacity
	te.oldSched = te.clean.appendSched(te.oldSched[:0])
}

func (te *ttpEngine) fillNewSched() {
	te.newSched = te.clean.appendSched(te.newSched[:0])
}

func (te *ttpEngine) rebuild(e *Engine) {
	n := len(e.set)
	te.t = core.TTPFor(ring.FDDI(e.bw), n)
	te.overhead = te.t.Overhead()
	te.fovhd = te.t.SyncFrame.OvhdTime(te.t.Net.BandwidthBPS)
	te.clean.clear()
	te.deg.clear()
	te.reprobed = 0
	if n == 0 {
		te.ttrt, te.capacity = 0, 0
		te.avail = 1
		te.budget = core.CleanFaultBudget()
		te.fillNewSched()
		return
	}
	te.ttrt = te.t.SelectTTRT(e.set)
	te.capacity = te.ttrt - te.overhead
	te.clean.recompute(te, e.set, 1)
	if e.fm != nil {
		te.budget = te.t.FaultBudgetFor(e.fm, e.set)
		te.avail = te.budget.Availability
		te.deg.recompute(te, e.set, te.avail)
	} else {
		te.avail = 1
	}
	te.clean.refold()
	te.deg.refold()
	te.fillNewSched()
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
		te.clean.recompute(te, e.set, 1)
	} else {
		te.clean.splice(te, e.set, sp, 1)
	}
	if e.fm != nil {
		te.budget = te.t.FaultBudgetFor(e.fm, e.set)
		availMoved := math.Float64bits(te.budget.Availability) != math.Float64bits(te.avail)
		te.avail = te.budget.Availability
		if ttrtMoved || availMoved {
			te.deg.recompute(te, e.set, te.avail)
		} else {
			te.deg.splice(te, e.set, sp, te.avail)
		}
	}
	te.clean.refold()
	te.deg.refold()
	te.fillNewSched()
}

func (te *ttpEngine) verdict(e *Engine) wire.Verdict {
	if len(e.set) == 0 {
		return wire.Verdict{Protocol: wire.ProtocolTTP, Schedulable: true}
	}
	v := wire.Verdict{
		Protocol:        wire.ProtocolTTP,
		Schedulable:     te.clean.total <= te.capacity,
		Utilization:     e.util,
		TTRT:            te.ttrt,
		Overhead:        te.overhead,
		TotalAllocation: te.clean.total,
		Capacity:        te.capacity,
		Streams:         make([]wire.StreamVerdict, len(e.set)),
	}
	for i, s := range e.set {
		v.Streams[i] = wire.StreamVerdict{
			ID:                wire.StreamHandle(e.ids[i]),
			Name:              s.Name,
			PeriodMs:          s.Period * 1e3,
			Q:                 te.clean.q[i],
			AugmentedLength:   te.clean.cAug[i],
			Allocation:        te.clean.h[i],
			WorstCaseResponse: te.clean.wcr[i],
			Schedulable:       te.clean.q[i] >= 2,
		}
	}
	if e.fm != nil {
		v.Degraded = &wire.DegradedVerdict{
			Schedulable:     te.deg.total <= te.capacity,
			Availability:    te.avail,
			TotalAllocation: wire.Allocation(te.deg.total),
			Capacity:        te.capacity,
		}
	}
	return v
}

// firstNonFinite is pdpEngine.firstNonFinite for the FDDI verdict. An
// edit that moved TTRT recomputed every stream's terms, so all are walked.
func (te *ttpEngine) firstNonFinite(e *Engine, from int) (float64, bool) {
	if x, bad := nonFinite(e.util, te.ttrt, te.overhead, te.clean.total, te.capacity); bad {
		return x, true
	}
	if e.fm != nil {
		if x, bad := nonFinite(te.avail, wire.Allocation(te.deg.total), te.capacity); bad {
			return x, true
		}
	}
	if te.recomputed {
		from = 0
	}
	for i := from; i < len(e.set); i++ {
		if x, bad := nonFinite(e.set[i].Period*1e3, te.clean.cAug[i], te.clean.h[i], te.clean.wcr[i]); bad {
			return x, true
		}
	}
	return 0, false
}
