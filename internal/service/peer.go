package service

import (
	"context"
	"net/http"
	"sort"
	"time"

	"ringsched/internal/cluster"
	"ringsched/internal/trace"
	"ringsched/ringschedclient"
)

// peerHopHeader marks a peer fill. Every outbound fill carries it, and a
// request that arrives with it is never forwarded again — so a fill can
// hop at most once regardless of how stale or disagreeing the members'
// ring configurations are. On a clustered replica a request carrying it
// to a route a fill can land on (analyze, topology, a sweep without SSE)
// also skips per-client rate limiting and tags its root span peerHop.
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

// fillFromPeer posts canon, the canonical request, to owner's path — the
// public route this request came in on — and installs the answer in the
// local cache under key. The owner serves it as any request on that
// route, re-canonicalizing it itself: canonicalization is idempotent, so
// both sides derive the same cache key without trusting each other's
// hashing. The pooled client sends the hop header with it. It reports
// whether the fill succeeded; on any failure the caller computes
// locally, so a dead or shedding owner degrades the cluster to
// per-process caching rather than to errors. It runs inside the flight
// group's compute function, so concurrent identical local requests
// coalesce onto one outbound fill.
func (s *Server) fillFromPeer(ctx context.Context, parent *trace.Span, owner, path, endpoint, key string, canon any) ([]byte, bool) {
	fctx, fsp := trace.Start(trace.ContextWithSpan(ctx, parent), "peer.fill")
	defer fsp.End()
	fsp.SetAttr("owner", owner)
	fsp.SetAttr("endpoint", endpoint)
	body, hdr, err := s.clust.pool.Client(owner).CallHeader(fctx, http.MethodPost, path, canon, nil)
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

// clusterDefaults fills the cluster-specific Config defaults.
func clusterDefaults(c Config) Config {
	if c.PeerFillTimeout <= 0 {
		c.PeerFillTimeout = 2 * time.Second
	}
	return c
}
