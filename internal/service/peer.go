package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"ringsched/internal/cluster"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
	"ringsched/ringschedclient"
)

// peerHopHeader is the peer-fill loop guard. Every outbound fill carries
// it, and a request that arrives with it is never forwarded again — so a
// fill can hop at most once regardless of how stale or disagreeing the
// members' ring configurations are.
const peerHopHeader = "X-Ringsched-Peer-Hop"

// clusterState is the per-process view of the sharded cluster: the
// consistent-hash ring every member computes identically from the flag
// configuration, this process's own advertise address, and one resilient
// client per peer (each peer gets its own circuit breaker, so one dead
// member never stops fills toward the others).
type clusterState struct {
	ring *cluster.Ring
	self string
	pool *ringschedclient.Pool
}

// initCluster wires the peer-fill layer into a Server being built by New.
// It is a no-op without an Advertise address (single-process mode).
func (s *Server) initCluster(cfg Config) {
	if cfg.Advertise == "" {
		return
	}
	members := append([]string{cfg.Advertise}, cfg.Peers...)
	s.clust = &clusterState{
		ring: cluster.New(cfg.PeerVNodes, members...),
		self: cfg.Advertise,
		pool: ringschedclient.NewPool(ringschedclient.Options{
			// A failed fill falls back to a local computation immediately;
			// retrying the peer first would spend the caller's deadline on
			// a member the breaker already suspects.
			MaxRetries: -1,
			Deadline:   cfg.PeerFillTimeout,
			ClientID:   "peer:" + cfg.Advertise,
			Headers:    map[string]string{peerHopHeader: "1"},
		}),
	}
	s.peerFill = newCounterVec("ringschedd_peer_fill_total",
		"Outbound peer cache fills by result (hit: peer had it cached or coalesced, miss: peer computed it, error: fill failed and this process computed locally).")
	s.mux.HandleFunc("/v1/peer/fill", s.instrumentOpts("peer.fill", s.handlePeerFill, true))
}

// Members returns the cluster member set (nil in single-process mode).
func (s *Server) Members() []string {
	if s.clust == nil {
		return nil
	}
	out := append([]string(nil), s.clust.ring.Members()...)
	sort.Strings(out)
	return out
}

// peerFillRequest is the /v1/peer/fill wire format: the logical endpoint
// plus the original request body, verbatim. The owner re-canonicalizes
// the request itself — canonicalization is idempotent, so both sides
// derive the same cache key without trusting each other's hashing.
type peerFillRequest struct {
	Endpoint string          `json:"endpoint"`
	Request  json.RawMessage `json:"request"`
}

// peerOwner returns the owning member for key when it is some other
// member and this request is still allowed to hop: forwarding is off in
// single-process mode, for requests that already hopped once (the loop
// guard), and of course for keys this process owns.
func (s *Server) peerOwner(r *http.Request, key string) string {
	if s.clust == nil || r.Header.Get(peerHopHeader) != "" {
		return ""
	}
	owner := s.clust.ring.Owner(key)
	if owner == s.clust.self {
		return ""
	}
	return owner
}

// fillFromPeer asks owner to serve key's computation over /v1/peer/fill
// and installs the result in the local cache. It reports whether the
// fill succeeded; on any failure the caller computes locally, so a dead
// or shedding owner degrades the cluster to per-process caching rather
// than to errors. It runs inside the flight group's compute function, so
// concurrent identical local requests coalesce onto one outbound fill.
func (s *Server) fillFromPeer(ctx context.Context, parent *trace.Span, owner, endpoint, key string, peerReq any) ([]byte, bool) {
	fctx, fsp := trace.Start(trace.ContextWithSpan(ctx, parent), "peer.fill")
	defer fsp.End()
	fsp.SetAttr("owner", owner)
	fsp.SetAttr("endpoint", endpoint)
	raw, err := json.Marshal(peerReq)
	if err != nil {
		fsp.SetError(err)
		s.peerFill.Add(labels("result", "error"), 1)
		return nil, false
	}
	body, hdr, err := s.clust.pool.Client(owner).CallHeader(fctx, http.MethodPost, "/v1/peer/fill",
		peerFillRequest{Endpoint: endpoint, Request: raw}, nil)
	if err != nil {
		fsp.SetError(err)
		s.peerFill.Add(labels("result", "error"), 1)
		return nil, false
	}
	result := "miss"
	if xc := hdr.Get("X-Cache"); xc == "hit" || xc == "coalesced" {
		result = "hit"
	}
	fsp.SetAttr("peerCache", hdr.Get("X-Cache"))
	s.peerFill.Add(labels("result", result), 1)
	s.cache.Put(key, body)
	return body, true
}

// handlePeerFill serves /v1/peer/fill: a peer that does not own a key
// asks this process (the owner) to serve the computation. The request
// runs through the exact cache → coalesce → compute path of the public
// endpoint it wraps, under the same computes/verdicts metrics, so a
// computation looks identical no matter which door it came through. The
// inbound request carries the hop header, so it can never forward again.
func (s *Server) handlePeerFill(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("service: POST required"))
		return
	}
	var req peerFillRequest
	if err := decodeBody(r, &req); err != nil {
		WriteError(w, StatusFor(err), err)
		return
	}
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		sp.SetAttr("fillEndpoint", req.Endpoint)
	}
	switch req.Endpoint {
	case "analyze":
		var inner AnalyzeRequest
		if _, err := unmarshalStrict(req.Request, &inner); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		s.serveAnalyze(w, r, inner, nil)
	case "topology":
		var inner TopologyRequest
		if _, err := unmarshalStrict(req.Request, &inner); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		s.serveTopology(w, r, inner, nil)
	case "sweep":
		var inner SweepRequest
		if _, err := unmarshalStrict(req.Request, &inner); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		s.serveSweep(w, r, inner, nil)
	default:
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("%w: unknown fill endpoint %q", ErrBadRequest, req.Endpoint))
	}
}

// unmarshalStrict is decodeFrom's twin for a body held whole in memory,
// and the one decoder behind Cache.KeyOf and every request body the
// server reads (ReadBody holds each whole). It decodes into a zero v
// exactly as decodeFrom does: an analyze body inside scanAnalyze's
// grammar or a ring edit body inside scanRingEdit's is scanned, and every
// other input goes through encoding/json. scanned reports which of the
// two ran.
func unmarshalStrict(raw []byte, v any) (scanned bool, err error) {
	switch req := v.(type) {
	case *AnalyzeRequest:
		*req, scanned = scanAnalyze(raw)
	case *wire.RingEditRequest:
		*req, scanned = scanRingEdit(raw)
	}
	if scanned {
		return true, nil
	}
	return false, decodeFrom(bytes.NewReader(raw), v)
}

// clusterDefaults fills the cluster-specific Config defaults.
func clusterDefaults(c Config) Config {
	if c.PeerFillTimeout <= 0 {
		c.PeerFillTimeout = 2 * time.Second
	}
	return c
}
