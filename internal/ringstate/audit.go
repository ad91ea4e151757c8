package ringstate

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"ringsched/internal/wire"
)

// The ring audit trail: every CAS mutation appends a compact record to a
// bounded per-ring log. The log never forgets state — records evicted
// past the cap are *folded* into a baseline stream set (WAL-style
// compaction), so "baseline adds + retained records" always replays to
// exactly the ring's current stream set. The dump format is
// cmd/ringadmit's script grammar, which makes the trail the future
// durable-rings WAL's serialization, differentially checked today by
// replaying a dump and asserting verdict equality.

// DefaultRingAudit is the per-ring retained audit-record cap.
const DefaultRingAudit = 256

// EditMeta carries request-scoped identity into the audit trail.
type EditMeta struct {
	// TraceID is the request's trace ID ("" when untraced).
	TraceID string
	// Client identifies the caller (X-Ringsched-Client or peer host).
	Client string
	// Time is the mutation wall time; zero means "now".
	Time time.Time
}

func (m EditMeta) when() time.Time {
	if m.Time.IsZero() {
		return time.Now().UTC()
	}
	return m.Time.UTC()
}

// ProtocolFlip records one protocol whose ring-level verdict changed on
// an edit.
type ProtocolFlip struct {
	Protocol string `json:"protocol"`
	// Degraded marks a flip of the fault-degraded verdict rather than
	// the clean one.
	Degraded bool `json:"degraded,omitempty"`
	Was      bool `json:"was"`
	Now      bool `json:"now"`
}

// AuditRecord is one mutation in a ring's history.
type AuditRecord struct {
	// Seq numbers records monotonically from 1 across the ring's whole
	// life, surviving compaction.
	Seq uint64 `json:"seq"`
	// VersionBefore/Version bracket the CAS: the mutation moved the ring
	// from VersionBefore to Version.
	VersionBefore uint64 `json:"versionBefore"`
	Version       uint64 `json:"version"`
	// Op is create, add, modify, or remove (the edit ops reuse the
	// script grammar's verbs).
	Op string `json:"op"`
	// StreamID is the affected stream (0 for create).
	StreamID uint64 `json:"streamId,omitempty"`
	// Stream holds the add/modify parameters.
	Stream *wire.StreamSpec `json:"stream,omitempty"`
	// Reprobed counts per-stream re-analyses the edit cost.
	Reprobed int `json:"reprobed"`
	// Flips lists ring-level verdict changes caused by the edit.
	Flips []ProtocolFlip `json:"flips,omitempty"`

	Time    time.Time `json:"time"`
	TraceID string    `json:"traceId,omitempty"`
	Client  string    `json:"client,omitempty"`
}

// OpCreate labels the ring-creation audit record (the stream ops reuse
// OpAdd/OpModify/OpRemove).
const OpCreate = "create"

// auditLog is the bounded, compacting per-ring record log. It is not
// self-locking: the owning Ring's mutex guards it. Once records holds cap
// entries it is a ring buffer: records[head] is the oldest, and an append
// overwrites it, so appending is O(1) at any cap.
type auditLog struct {
	cap       int
	records   []AuditRecord
	head      int
	baseline  map[uint64]wire.StreamSpec
	seq       uint64
	compacted uint64
}

func newAuditLog(cap int) *auditLog {
	if cap < 1 {
		cap = 1
	}
	return &auditLog{cap: cap, baseline: map[uint64]wire.StreamSpec{}}
}

// seed installs a stream into the baseline directly (ring creation's
// initial stream set predates record 1).
func (a *auditLog) seed(id uint64, s wire.StreamSpec) { a.baseline[id] = s }

// append stores one record; at the cap it folds the oldest into the
// baseline and takes its slot.
func (a *auditLog) append(rec AuditRecord) {
	a.seq++
	rec.Seq = a.seq
	if len(a.records) < a.cap {
		a.records = append(a.records, rec)
		return
	}
	a.fold(a.records[a.head])
	a.records[a.head] = rec
	if a.head++; a.head == len(a.records) {
		a.head = 0
	}
}

// oldestFirst copies the retained records out, oldest first.
func (a *auditLog) oldestFirst() []AuditRecord {
	if len(a.records) == 0 {
		return nil
	}
	out := make([]AuditRecord, 0, len(a.records))
	out = append(out, a.records[a.head:]...)
	return append(out, a.records[:a.head]...)
}

// fold applies one evicted record to the baseline so the trail still
// replays to the current state.
func (a *auditLog) fold(rec AuditRecord) {
	a.compacted++
	switch rec.Op {
	case OpAdd, OpModify:
		if rec.Stream != nil {
			a.baseline[rec.StreamID] = *rec.Stream
		}
	case OpRemove:
		delete(a.baseline, rec.StreamID)
	}
	// OpCreate folds to nothing: the config lives on the engine.
}

// History is a consistent view of one ring's audit trail.
type History struct {
	RingID  string `json:"ringId"`
	Version uint64 `json:"version"`
	Config  Config `json:"config"`
	// Baseline is the stream set at the oldest retained record —
	// compacted history folded down to state.
	Baseline []SnapshotStream `json:"baseline,omitempty"`
	// Records are the retained mutations, oldest first.
	Records []AuditRecord `json:"records"`
	// Compacted counts records folded into the baseline.
	Compacted uint64 `json:"compacted"`
}

// History returns the ring's audit trail under the read lock.
func (r *Ring) History() (History, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.deleted {
		return History{}, ErrRingNotFound
	}
	h := History{
		RingID:    r.id,
		Version:   r.version,
		Config:    r.engine.Config(),
		Records:   r.audit.oldestFirst(),
		Compacted: r.audit.compacted,
	}
	for id, s := range r.audit.baseline {
		h.Baseline = append(h.Baseline, SnapshotStream{ID: id, StreamSpec: s})
	}
	sort.Slice(h.Baseline, func(i, j int) bool { return h.Baseline[i].ID < h.Baseline[j].ID })
	return h, nil
}

func formatMs(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Script renders the history in cmd/ringadmit's script grammar. Header
// comments carry the ring config so an operator can replay with the
// matching -bw/-protocols/-fault-model flags; replaying the emitted
// add/modify/remove lines against an empty engine with that config
// reproduces the ring's current verdicts exactly (stream names become
// s<ID> handles; verdict numerics are unaffected because the engine's
// canonical order ties only between identical (period, bits) pairs).
func (h History) Script(w io.Writer) {
	fmt.Fprintf(w, "# ring %s history (version %d)\n", h.RingID, h.Version)
	fmt.Fprintf(w, "# bandwidth-mbps: %s\n", formatMs(h.Config.BandwidthMbps))
	if len(h.Config.Protocols) > 0 {
		fmt.Fprintf(w, "# protocols:")
		for _, p := range h.Config.Protocols {
			fmt.Fprintf(w, " %s", p)
		}
		fmt.Fprintln(w)
	}
	if h.Config.FaultSpec != "" {
		fmt.Fprintf(w, "# fault-model: %s\n", h.Config.FaultSpec)
	}
	if len(h.Baseline) > 0 || h.Compacted > 0 {
		fmt.Fprintf(w, "# baseline: %d streams (%d records compacted)\n", len(h.Baseline), h.Compacted)
	}
	for _, s := range h.Baseline {
		fmt.Fprintf(w, "add %s %s %s\n", wire.StreamHandle(s.ID), formatMs(s.PeriodMs), formatMs(s.LengthBits))
	}
	for _, rec := range h.Records {
		switch rec.Op {
		case OpCreate:
			fmt.Fprintf(w, "# v%d create by %q trace %q\n", rec.Version, rec.Client, rec.TraceID)
		case OpAdd:
			fmt.Fprintf(w, "add %s %s %s\n", wire.StreamHandle(rec.StreamID), formatMs(rec.Stream.PeriodMs), formatMs(rec.Stream.LengthBits))
		case OpModify:
			fmt.Fprintf(w, "modify %s %s %s\n", wire.StreamHandle(rec.StreamID), formatMs(rec.Stream.PeriodMs), formatMs(rec.Stream.LengthBits))
		case OpRemove:
			fmt.Fprintf(w, "remove %s\n", wire.StreamHandle(rec.StreamID))
		}
	}
}

// auditFlips extracts ring-level verdict flips from an edit delta.
func auditFlips(d *Delta) []ProtocolFlip {
	var flips []ProtocolFlip
	for _, p := range d.Protocols {
		if p.WasSchedulable != p.Schedulable {
			flips = append(flips, ProtocolFlip{Protocol: p.Protocol, Was: p.WasSchedulable, Now: p.Schedulable})
		}
		if p.HasDegraded && p.DegradedWasSchedulable != p.DegradedSchedulable {
			flips = append(flips, ProtocolFlip{Protocol: p.Protocol, Degraded: true, Was: p.DegradedWasSchedulable, Now: p.DegradedSchedulable})
		}
	}
	return flips
}
