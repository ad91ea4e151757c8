package ringstate

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"ringsched/internal/wire"
)

// Defaults for Store capacity limits when the caller passes 0.
const (
	DefaultMaxRings       = 4096
	DefaultMaxRingStreams = 4096
)

// Store holds the server's long-lived rings. All methods are safe for
// concurrent use; each ring serializes its own edits under a per-ring
// lock so two rings never contend with each other.
//
// Lock order is always store → ring: Store methods may take a ring lock
// while holding the store lock, ring methods never reach back into the
// store.
type Store struct {
	mu         sync.Mutex
	rings      map[string]*Ring
	nextID     uint64
	maxRings   int
	maxStreams int
	auditCap   int
}

// NewStore builds an empty store; zero limits select the defaults.
func NewStore(maxRings, maxStreams int) *Store {
	if maxRings <= 0 {
		maxRings = DefaultMaxRings
	}
	if maxStreams <= 0 {
		maxStreams = DefaultMaxRingStreams
	}
	return &Store{
		rings:      map[string]*Ring{},
		nextID:     1,
		maxRings:   maxRings,
		maxStreams: maxStreams,
		auditCap:   DefaultRingAudit,
	}
}

// SetAuditCap overrides the per-ring retained audit-record cap for rings
// created afterwards (test hook for compaction behavior).
func (st *Store) SetAuditCap(n int) {
	st.mu.Lock()
	st.auditCap = n
	st.mu.Unlock()
}

// Ring is one versioned, long-lived ring. Versions start at 1 and
// advance by one per successful mutation; a mutation naming a non-zero
// expected version that does not match fails with ConflictError and
// changes nothing. Expected version 0 is unconditional.
type Ring struct {
	id         string
	maxStreams int

	mu      sync.RWMutex
	version uint64
	engine  *Engine
	audit   *auditLog
	deleted bool
}

// Create builds a new ring from a config and an optional initial stream
// set (admitted in order, as a sequence of adds at version-build time).
// The seed streams land in the audit baseline, and a create record
// carrying meta opens the trail.
func (st *Store) Create(cfg Config, streams []wire.StreamSpec, meta EditMeta) (*Ring, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if len(streams) > st.maxStreams {
		return nil, fmt.Errorf("%w: %d streams, limit %d", ErrTooManyStreams, len(streams), st.maxStreams)
	}
	audit := newAuditLog(st.auditCap)
	for _, s := range streams {
		id, _, err := eng.Add(s)
		if err != nil {
			return nil, err
		}
		audit.seed(id, s)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.rings) >= st.maxRings {
		return nil, fmt.Errorf("%w: limit %d", ErrTooManyRings, st.maxRings)
	}
	r := &Ring{
		id:         "r" + strconv.FormatUint(st.nextID, 10),
		maxStreams: st.maxStreams,
		version:    1,
		engine:     eng,
		audit:      audit,
	}
	audit.append(AuditRecord{
		VersionBefore: 0,
		Version:       1,
		Op:            OpCreate,
		Time:          meta.when(),
		TraceID:       meta.TraceID,
		Client:        meta.Client,
	})
	st.nextID++
	st.rings[r.id] = r
	return r, nil
}

// Get returns the ring with the given ID.
func (st *Store) Get(id string) (*Ring, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.rings[id]
	if !ok {
		return nil, ErrRingNotFound
	}
	return r, nil
}

// List returns every resident ring in ID order.
func (st *Store) List() []*Ring {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Ring, 0, len(st.rings))
	for _, r := range st.rings {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric order: "r10" after "r9".
		a, b := out[i].id, out[j].id
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// Len returns the resident ring count.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.rings)
}

// Delete removes a ring, CAS-guarded like any other mutation. In-flight
// edits that already hold the ring lock finish first; edits that arrive
// after removal fail with ErrRingNotFound.
func (st *Store) Delete(id string, expected uint64) error {
	st.mu.Lock()
	r, ok := st.rings[id]
	if !ok {
		st.mu.Unlock()
		return ErrRingNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if expected != 0 && expected != r.version {
		st.mu.Unlock()
		return &ConflictError{Expected: expected, Current: r.version}
	}
	r.deleted = true
	delete(st.rings, id)
	st.mu.Unlock()
	return nil
}

// ID returns the ring's store-assigned identifier.
func (r *Ring) ID() string { return r.id }

// Version returns the ring's current version.
func (r *Ring) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// State returns a consistent (version, config, snapshot, verdicts)
// quadruple under the read lock.
func (r *Ring) State() (uint64, Config, []SnapshotStream, []wire.Verdict, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.deleted {
		return 0, Config{}, nil, nil, ErrRingNotFound
	}
	return r.version, r.engine.Config(), r.engine.Snapshot(), r.engine.Verdicts(), nil
}

// edit runs one CAS-guarded mutation. The op must return the engine's
// scratch delta; edit clones it before releasing the lock so the caller
// owns the result. On success an audit record built from the cloned
// delta (plus the add/modify stream params) is appended to the trail.
func (r *Ring) edit(expected uint64, meta EditMeta, params *wire.StreamSpec, op func(*Engine) (*Delta, error)) (uint64, *Delta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deleted {
		return 0, nil, ErrRingNotFound
	}
	if expected != 0 && expected != r.version {
		return 0, nil, &ConflictError{Expected: expected, Current: r.version}
	}
	d, err := op(r.engine)
	if err != nil {
		return 0, nil, err
	}
	before := r.version
	r.version++
	out := d.Clone()
	r.audit.append(AuditRecord{
		VersionBefore: before,
		Version:       r.version,
		Op:            out.Op,
		StreamID:      out.StreamID,
		Stream:        params,
		Reprobed:      out.Reprobed,
		Flips:         auditFlips(out),
		Time:          meta.when(),
		TraceID:       meta.TraceID,
		Client:        meta.Client,
	})
	return r.version, out, nil
}

// AddStream admits a stream under CAS, returning the new version, the
// assigned stream ID, and the incremental delta.
func (r *Ring) AddStream(expected uint64, s wire.StreamSpec, meta EditMeta) (uint64, uint64, *Delta, error) {
	var id uint64
	v, d, err := r.edit(expected, meta, &s, func(e *Engine) (*Delta, error) {
		if e.Len() >= r.maxStreams {
			return nil, fmt.Errorf("%w: limit %d", ErrTooManyStreams, r.maxStreams)
		}
		newID, delta, err := e.Add(s)
		id = newID
		return delta, err
	})
	return v, id, d, err
}

// RemoveStream evicts a stream under CAS.
func (r *Ring) RemoveStream(expected, id uint64, meta EditMeta) (uint64, *Delta, error) {
	return r.edit(expected, meta, nil, func(e *Engine) (*Delta, error) {
		return e.Remove(id)
	})
}

// ModifyStream replaces a stream under CAS.
func (r *Ring) ModifyStream(expected, id uint64, s wire.StreamSpec, meta EditMeta) (uint64, *Delta, error) {
	return r.edit(expected, meta, &s, func(e *Engine) (*Delta, error) {
		return e.Modify(id, s)
	})
}
