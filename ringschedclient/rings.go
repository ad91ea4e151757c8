package ringschedclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"ringsched/internal/resilience"
	"ringsched/internal/ringstate"
	"ringsched/internal/wire"
)

// This file is the client side of the stateful /v1/rings API: a
// RingSession tracks one server-side ring and its version, applies
// optimistic-concurrency edits, and transparently rebases on CAS
// conflicts. The ring types are the server's own schema, declared once
// in internal/wire (the audit trail in internal/ringstate); the names
// here are aliases, so a client reads every field the server writes.

type (
	// RingStreamSpec is one synchronous message stream on the wire.
	RingStreamSpec = wire.StreamSpec
	// RingCreateRequest creates a ring session; parameters are exactly
	// /v1/analyze's, plus an optional seed stream set.
	RingCreateRequest = wire.RingCreateRequest
	// RingStream is one resident stream with its server-assigned handle.
	RingStream = wire.RingStream
	// RingState is the ring's full state at one version, its verdicts
	// those /v1/analyze reports for the same stream set.
	RingState = wire.RingResponse
	// RingStreamFlip names a stream whose verdict changed under an edit.
	RingStreamFlip = wire.RingStreamFlip
	// RingProtocolDelta is one protocol's incremental verdict delta.
	RingProtocolDelta = wire.RingProtocolDelta
	// RingEdit is one applied edit's outcome. A nil error from an edit
	// call does NOT mean the stream is schedulable — read the deltas or
	// Admitted; an infeasible admission is a successful edit with a
	// negative verdict.
	RingEdit = wire.RingEditResponse
	// RingHistory is the server's audit trail for one ring: its config,
	// the baseline stream set that compacted records folded into, and the
	// retained mutation records, oldest first. Replaying the baseline and
	// then the records through a ringstate.Engine with that config
	// rebuilds the ring.
	RingHistory = ringstate.History
	// RingHistoryRecord is one entry in a ring's audit trail.
	RingHistoryRecord = ringstate.AuditRecord
)

// ringConflictRetries bounds transparent CAS rebases per edit call:
// under heavy contention the caller gets the conflict back rather than
// an unbounded livelock loop.
const ringConflictRetries = 3

// RingSession tracks one server-side ring and its last-seen version,
// providing the optimistic-concurrency edit loop: every edit names the
// tracked version; on a 409 the session adopts the server's current
// version from the conflict body and replays the edit, bounded by
// ringConflictRetries. It is safe for concurrent use, but concurrent
// edits from one session contend on the server like any two writers.
type RingSession struct {
	c  *Client
	id string

	mu      sync.Mutex
	version uint64
}

// CreateRing creates a server-side ring and returns the session plus
// the initial state (version 1, seed streams analyzed).
func (c *Client) CreateRing(ctx context.Context, req RingCreateRequest) (*RingSession, *RingState, error) {
	raw, err := c.Call(ctx, http.MethodPost, "/v1/rings", req)
	if err != nil {
		return nil, nil, err
	}
	var state RingState
	if err := json.Unmarshal(raw, &state); err != nil {
		return nil, nil, fmt.Errorf("ringschedclient: decode ring state: %w", err)
	}
	return &RingSession{c: c, id: state.ID, version: state.Version}, &state, nil
}

// OpenRing attaches a session to an existing ring by ID.
func (c *Client) OpenRing(ctx context.Context, id string) (*RingSession, *RingState, error) {
	s := &RingSession{c: c, id: id}
	state, err := s.Refresh(ctx)
	if err != nil {
		return nil, nil, err
	}
	return s, state, nil
}

// ID returns the server-side ring ID.
func (s *RingSession) ID() string { return s.id }

// Version returns the last version this session observed.
func (s *RingSession) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// observe adopts a version the server reported.
func (s *RingSession) observe(v uint64) {
	s.mu.Lock()
	if v > s.version {
		s.version = v
	}
	s.mu.Unlock()
}

// Refresh fetches the ring's current state and adopts its version.
func (s *RingSession) Refresh(ctx context.Context) (*RingState, error) {
	raw, err := s.c.Call(ctx, http.MethodGet, "/v1/rings/"+url.PathEscape(s.id), nil)
	if err != nil {
		return nil, err
	}
	var state RingState
	if err := json.Unmarshal(raw, &state); err != nil {
		return nil, fmt.Errorf("ringschedclient: decode ring state: %w", err)
	}
	s.observe(state.Version)
	return &state, nil
}

// Delete deletes the ring unconditionally and invalidates the session.
func (s *RingSession) Delete(ctx context.Context) error {
	_, err := s.c.Call(ctx, http.MethodDelete, "/v1/rings/"+url.PathEscape(s.id), nil)
	return err
}

// AddStream admits one stream through the CAS edit loop.
func (s *RingSession) AddStream(ctx context.Context, spec RingStreamSpec) (*RingEdit, error) {
	return s.edit(ctx, func(expected uint64) (json.RawMessage, error) {
		body := wire.RingEditRequest{ExpectedVersion: expected, Stream: spec}
		return s.c.Call(ctx, http.MethodPost, "/v1/rings/"+url.PathEscape(s.id)+"/streams", body)
	})
}

// ModifyStream replaces the named stream's parameters.
func (s *RingSession) ModifyStream(ctx context.Context, streamID string, spec RingStreamSpec) (*RingEdit, error) {
	return s.edit(ctx, func(expected uint64) (json.RawMessage, error) {
		body := wire.RingEditRequest{ExpectedVersion: expected, Stream: spec}
		return s.c.Call(ctx, http.MethodPut,
			"/v1/rings/"+url.PathEscape(s.id)+"/streams/"+url.PathEscape(streamID), body)
	})
}

// RemoveStream removes the named stream.
func (s *RingSession) RemoveStream(ctx context.Context, streamID string) (*RingEdit, error) {
	return s.edit(ctx, func(expected uint64) (json.RawMessage, error) {
		path := "/v1/rings/" + url.PathEscape(s.id) + "/streams/" + url.PathEscape(streamID) +
			"?expectedVersion=" + strconv.FormatUint(expected, 10)
		return s.c.Call(ctx, http.MethodDelete, path, nil)
	})
}

// edit runs one mutation through the conflict-rebase loop. Rebasing is
// safe precisely because every edit is CAS-guarded: a replay can never
// double-apply — if the previous attempt actually landed, the version
// has moved and the replay conflicts instead of duplicating.
func (s *RingSession) edit(ctx context.Context, do func(expected uint64) (json.RawMessage, error)) (*RingEdit, error) {
	expected := s.Version()
	var lastErr error
	for attempt := 0; attempt <= ringConflictRetries; attempt++ {
		raw, err := do(expected)
		if err == nil {
			var edit RingEdit
			if err := json.Unmarshal(raw, &edit); err != nil {
				return nil, fmt.Errorf("ringschedclient: decode ring edit: %w", err)
			}
			s.observe(edit.Version)
			return &edit, nil
		}
		lastErr = err
		ae := apiErrorOf(err)
		if ae == nil || ae.Code != resilience.CodeConflict || ae.CurrentVersion == 0 {
			return nil, err
		}
		expected = ae.CurrentVersion
		s.observe(expected)
	}
	return nil, fmt.Errorf("ringschedclient: edit still conflicting after %d rebases: %w",
		ringConflictRetries, lastErr)
}

// History fetches the ring's audit trail as structured records.
func (s *RingSession) History(ctx context.Context) (*RingHistory, error) {
	raw, err := s.c.Call(ctx, http.MethodGet, "/v1/rings/"+url.PathEscape(s.id)+"/history", nil)
	if err != nil {
		return nil, err
	}
	var h RingHistory
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("ringschedclient: decode ring history: %w", err)
	}
	s.observe(h.Version)
	return &h, nil
}

// HistoryScript fetches the audit trail in the ringadmit script
// serialization — the replayable WAL form — as plain text.
func (s *RingSession) HistoryScript(ctx context.Context) (string, error) {
	raw, err := s.c.Call(ctx, http.MethodGet,
		"/v1/rings/"+url.PathEscape(s.id)+"/history?format=script", nil)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}
