package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ringsched/internal/resilience"
	"ringsched/internal/ringstate"
	"ringsched/internal/rma"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
)

// This file is the stateful half of the API: /v1/rings sessions backed
// by the ringstate incremental engine. Where /v1/analyze answers one
// stateless question per request, a ring session holds a long-lived
// stream set and answers "can I admit one more?" by re-probing only the
// streams whose verdict can change — with optimistic concurrency so
// concurrent controllers never clobber each other's admissions.

// editMeta captures the mutating request's identity for the ring audit
// trail: the root span's trace ID as the middleware rendered it for the
// response header (so a history row links straight into /debug/traces)
// and the rate-limiter's client key.
func editMeta(r *http.Request) ringstate.EditMeta {
	meta := ringstate.EditMeta{Client: clientKey(r)}
	if d, ok := r.Context().Value(digestCtxKey{}).(*requestDigest); ok {
		meta.TraceID = d.traceID[0]
	}
	return meta
}

// ringError maps ringstate errors onto the wire. Conflicts get a
// dedicated body carrying the ring's current version, so a client can
// rebase its edit without an extra GET.
func (s *Server) ringError(w http.ResponseWriter, err error) {
	var conflict *ringstate.ConflictError
	var inf *json.UnsupportedValueError
	switch {
	case errors.As(err, &conflict):
		body := errorBody{
			Error:          err.Error(),
			Code:           string(resilience.CodeConflict),
			CurrentVersion: conflict.Current,
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		out, _ := json.Marshal(body)
		w.Write(append(out, '\n'))
	case errors.Is(err, ringstate.ErrRingNotFound), errors.Is(err, ringstate.ErrStreamNotFound):
		WriteError(w, http.StatusNotFound,
			resilience.Errorf(resilience.CodeNotFound, http.StatusNotFound, "%v", err))
	case errors.Is(err, ringstate.ErrTooManyRings), errors.Is(err, ringstate.ErrTooManyStreams):
		WriteError(w, http.StatusTooManyRequests,
			resilience.Errorf(resilience.CodeOverloaded, http.StatusTooManyRequests, "%v", err))
	case errors.Is(err, rma.ErrBadTask), errors.Is(err, rma.ErrBadBlocking):
		// The streams passed validation, so a task or blocking term the
		// kernel refuses overflowed (+Inf on a near-zero bandwidth), as
		// /v1/analyze reports it.
		WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: analysis out of range: %v", ErrBadRequest, err))
	case errors.As(err, &inf):
		// The engine refused verdicts holding a number JSON cannot carry,
		// with the error /v1/analyze meets encoding them.
		WriteError(w, http.StatusBadRequest, resultOutOfRange(inf))
	default:
		WriteError(w, http.StatusBadRequest, err)
	}
}

// ringResponse renders a ring's full state at its current version.
// SnapshotKey is the cache key of the /v1/analyze request equivalent to
// the snapshot (Detail on, so per-stream verdicts are included — the
// shape wire.RingResponse.Verdicts carries).
func ringResponse(r *ringstate.Ring) (wire.RingResponse, error) {
	version, cfg, snap, verdicts, err := r.State()
	if err != nil {
		return wire.RingResponse{}, err
	}
	resp := wire.RingResponse{
		ID:            r.ID(),
		Version:       version,
		Protocols:     cfg.Protocols,
		BandwidthMbps: cfg.BandwidthMbps,
		FaultModel:    cfg.FaultSpec,
		Streams:       make([]wire.RingStream, len(snap)),
		Verdicts:      verdicts,
	}
	req := AnalyzeRequest{
		Protocols:     cfg.Protocols,
		BandwidthMbps: cfg.BandwidthMbps,
		FaultModel:    cfg.FaultSpec,
		Detail:        true,
		Streams:       make([]StreamSpec, len(snap)),
	}
	for i, st := range snap {
		resp.Streams[i] = wire.RingStream{ID: wire.StreamHandle(st.ID), StreamSpec: st.StreamSpec}
		req.Streams[i] = st.StreamSpec
	}
	if len(snap) == 0 {
		return resp, nil
	}
	// A resident ring only holds streams that already passed the same
	// validation; an error here is a programming bug, not a request
	// problem — surface it as a missing key rather than a 500.
	if canon, err := req.Canonicalize(); err == nil {
		resp.SnapshotKey = canon.CacheKey()
	}
	return resp, nil
}

func (s *Server) writeRingJSON(w http.ResponseWriter, status int, v any) {
	body, err := Encode(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

// handleRings serves the /v1/rings collection: POST creates a session,
// GET lists resident rings.
func (s *Server) handleRings(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req wire.RingCreateRequest
		if err := decodeBody(r, &req); err != nil {
			WriteError(w, StatusFor(err), err)
			return
		}
		// Resolve FaultModel/Scenario exactly like /v1/analyze, so a ring
		// and the stateless endpoint can never disagree on fault semantics.
		spec, err := canonFaultSpec(req.FaultModel, req.Scenario)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		cfg := ringstate.Config{
			Protocols:     req.Protocols,
			BandwidthMbps: req.BandwidthMbps,
			FaultSpec:     spec,
		}
		ring, err := s.rings.Create(cfg, req.Streams, editMeta(r))
		if err != nil {
			s.ringEdits.Add(ringEditLabels[[2]string{ringstate.OpCreate, "error"}], 1)
			s.ringError(w, err)
			return
		}
		s.ringEdits.Add(ringEditLabels[[2]string{ringstate.OpCreate, "ok"}], 1)
		resp, err := ringResponse(ring)
		if err != nil {
			s.ringError(w, err)
			return
		}
		s.writeRingJSON(w, http.StatusCreated, resp)
	case http.MethodGet:
		list := wire.RingListResponse{Rings: []wire.RingSummary{}}
		for _, ring := range s.rings.List() {
			version, _, snap, _, err := ring.State()
			if err != nil {
				continue // deleted between List and State
			}
			list.Rings = append(list.Rings, wire.RingSummary{ID: ring.ID(), Version: version, Streams: len(snap)})
		}
		s.writeRingJSON(w, http.StatusOK, list)
	default:
		WriteError(w, http.StatusMethodNotAllowed, errors.New("service: GET or POST required"))
	}
}

// expectedVersionParam reads the CAS precondition for bodyless methods
// (DELETE) from the query string; absent means unconditional.
func expectedVersionParam(r *http.Request) (uint64, error) {
	raw := r.URL.Query().Get("expectedVersion")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, errors.New("service: bad expectedVersion query parameter: want an unsigned integer")
	}
	return v, nil
}

// handleRingItem routes /v1/rings/{id}[...]:
//
//	GET    /v1/rings/{id}                    — full state
//	GET    /v1/rings/{id}/history[?format=script] — audit trail
//	DELETE /v1/rings/{id}[?expectedVersion=] — delete session
//	POST   /v1/rings/{id}/streams            — add a stream
//	PUT    /v1/rings/{id}/streams/{sid}      — modify a stream
//	DELETE /v1/rings/{id}/streams/{sid}[?expectedVersion=] — remove
func (s *Server) handleRingItem(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(strings.TrimPrefix(r.URL.Path, "/v1/rings/"), "/"), "/")
	if len(parts) == 0 || parts[0] == "" {
		WriteError(w, http.StatusNotFound,
			resilience.Errorf(resilience.CodeNotFound, http.StatusNotFound, "service: missing ring id"))
		return
	}
	ringID := parts[0]
	switch {
	case len(parts) == 1:
		s.handleRing(w, r, ringID)
	case len(parts) == 2 && parts[1] == "history":
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, errors.New("service: GET required"))
			return
		}
		s.handleRingHistory(w, r, ringID)
	case len(parts) == 2 && parts[1] == "streams" && r.Method == http.MethodPost:
		s.handleRingEdit(w, r, ringID, ringstate.OpAdd, 0)
	case len(parts) == 3 && parts[1] == "streams":
		sid, ok := wire.ParseStreamHandle(parts[2])
		if !ok {
			WriteError(w, http.StatusNotFound,
				resilience.Errorf(resilience.CodeNotFound, http.StatusNotFound,
					"service: bad stream id %q", parts[2]))
			return
		}
		switch r.Method {
		case http.MethodPut:
			s.handleRingEdit(w, r, ringID, ringstate.OpModify, sid)
		case http.MethodDelete:
			s.handleRingEdit(w, r, ringID, ringstate.OpRemove, sid)
		default:
			WriteError(w, http.StatusMethodNotAllowed, errors.New("service: PUT or DELETE required"))
		}
	default:
		WriteError(w, http.StatusNotFound,
			resilience.Errorf(resilience.CodeNotFound, http.StatusNotFound,
				"service: no such route under /v1/rings/"))
	}
}

func (s *Server) handleRing(w http.ResponseWriter, r *http.Request, ringID string) {
	switch r.Method {
	case http.MethodGet:
		ring, err := s.rings.Get(ringID)
		if err != nil {
			s.ringError(w, err)
			return
		}
		resp, err := ringResponse(ring)
		if err != nil {
			s.ringError(w, err)
			return
		}
		s.writeRingJSON(w, http.StatusOK, resp)
	case http.MethodDelete:
		expected, err := expectedVersionParam(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if err := s.rings.Delete(ringID, expected); err != nil {
			s.ringEdits.Add(ringEditLabels[[2]string{"delete", outcomeFor(err)}], 1)
			s.ringError(w, err)
			return
		}
		s.ringEdits.Add(ringEditLabels[[2]string{"delete", "ok"}], 1)
		w.WriteHeader(http.StatusNoContent)
	default:
		WriteError(w, http.StatusMethodNotAllowed, errors.New("service: GET or DELETE required"))
	}
}

// handleRingHistory serves the ring's audit trail: JSON by default, or
// the ringadmit script serialization with ?format=script. The script is
// the future durable-WAL format — replaying it offline (ringadmit
// -script with the config the header comments name) reproduces the
// ring's current verdicts exactly, which scripts/obs_demo.sh asserts.
func (s *Server) handleRingHistory(w http.ResponseWriter, r *http.Request, ringID string) {
	ring, err := s.rings.Get(ringID)
	if err != nil {
		s.ringError(w, err)
		return
	}
	h, err := ring.History()
	if err != nil {
		s.ringError(w, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.writeRingJSON(w, http.StatusOK, h)
	case "script":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		h.Script(w)
	default:
		WriteError(w, http.StatusBadRequest,
			errors.New("service: bad format query parameter: want json or script"))
	}
}

// ringEditLabels holds the ringschedd_ring_edits_total label string of
// every (op, outcome) pair, and reprobeLabels the
// ringschedd_reprobe_streams one of every edit op, rendered once.
var ringEditLabels, reprobeLabels = func() (map[[2]string]string, map[string]string) {
	edits, reprobes := map[[2]string]string{}, map[string]string{}
	for _, op := range []string{ringstate.OpCreate, ringstate.OpAdd, ringstate.OpModify, ringstate.OpRemove, "delete"} {
		for _, outcome := range []string{"ok", "conflict", "error"} {
			edits[[2]string{op, outcome}] = labels("op", op, "outcome", outcome)
		}
		reprobes[op] = labels("op", op)
	}
	return edits, reprobes
}()

// outcomeFor labels the edit-counter outcome for a failed mutation.
func outcomeFor(err error) string {
	var conflict *ringstate.ConflictError
	if errors.As(err, &conflict) {
		return "conflict"
	}
	return "error"
}

// handleRingEdit applies one stream mutation and reports the
// incremental delta. The edit runs under a "ring.edit" span; the
// engine's re-probe count lands both on the span and in the
// ringschedd_reprobe_streams histogram, so the "incremental analysis
// stays incremental" claim is observable in production.
func (s *Server) handleRingEdit(w http.ResponseWriter, r *http.Request, ringID, op string, sid uint64) {
	var expected uint64
	var stream StreamSpec
	if op == ringstate.OpRemove {
		v, err := expectedVersionParam(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		expected = v
	} else {
		var req wire.RingEditRequest
		if err := decodeBody(r, &req); err != nil {
			WriteError(w, StatusFor(err), err)
			return
		}
		expected, stream = req.ExpectedVersion, req.Stream
	}
	ring, err := s.rings.Get(ringID)
	if err != nil {
		s.ringError(w, err)
		return
	}

	sp := trace.StartLeaf(r.Context(), "ring.edit")
	sp.SetAttr("ring", ringID)
	sp.SetAttr("op", op)
	var version uint64
	var delta *ringstate.Delta
	meta := editMeta(r)
	switch op {
	case ringstate.OpAdd:
		version, sid, delta, err = ring.AddStream(expected, stream, meta)
	case ringstate.OpModify:
		version, delta, err = ring.ModifyStream(expected, sid, stream, meta)
	case ringstate.OpRemove:
		version, delta, err = ring.RemoveStream(expected, sid, meta)
	}
	if err != nil {
		sp.SetError(err)
		sp.End()
		s.ringEdits.Add(ringEditLabels[[2]string{op, outcomeFor(err)}], 1)
		s.ringError(w, err)
		return
	}
	sp.SetAttr("version", version)
	sp.SetAttr("reprobed", delta.Reprobed)
	// ring.reprobe is the span a trace reader greps for to see edit cost;
	// its wall time is inside ring.edit, so it is recorded zero-width
	// with the stream count as its payload.
	rsp := trace.StartLeaf(r.Context(), "ring.reprobe")
	rsp.SetAttr("streams", delta.Reprobed)
	rsp.End()
	sp.End()
	s.ringEdits.Add(ringEditLabels[[2]string{op, "ok"}], 1)
	s.reprobeStreams.Observe(reprobeLabels[op], float64(delta.Reprobed))

	s.writeRingJSON(w, http.StatusOK, wire.RingEditResponse{
		RingID:   ringID,
		Version:  version,
		Op:       op,
		StreamID: wire.StreamHandle(sid),
		Reprobed: delta.Reprobed,
		Deltas:   delta.Wire(),
	})
}
