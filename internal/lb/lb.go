// Package lb is the cluster front door for a sharded ringschedd
// deployment: it health-checks the member set, routes each cacheable API
// request to the replica that owns its canonical key on the cluster's
// consistent-hash ring (so the shard caches stay hot and an identical
// burst lands on one coalescing point), and fails over to any healthy
// replica when the owner is down or misbehaving. Per-backend resilience
// comes from ringschedclient: each backend gets its own circuit breaker,
// retries are budgeted, and Retry-After hints are honored.
//
// The lb keeps only that policy (shard routing, failover on 5xx, raw SSE
// proxying). The rest of the request edge is the replica's own
// (internal/service), so whatever the lb answers reads as a replica's
// bytes.
package lb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ringsched/internal/cluster"
	"ringsched/internal/promtext"
	"ringsched/internal/resilience"
	"ringsched/internal/service"
	"ringsched/internal/trace"
	"ringsched/ringschedclient"
)

// Config tunes the front door; the zero value is filled by defaults.
type Config struct {
	Backends      []string
	VNodes        int
	CheckInterval time.Duration
	CheckTimeout  time.Duration
	Rise, Fall    int
	Retries       int
	Deadline      time.Duration
	Hedge         time.Duration
	Logger        *slog.Logger
}

// Balancer routes requests for one backend set. It is safe for
// concurrent use. New starts no goroutine: the health-check loop is Run,
// whose lifetime the caller owns.
type Balancer struct {
	ring    *cluster.Ring
	checker *cluster.Checker
	pool    *ringschedclient.Pool
	mux     *http.ServeMux
	keys    *service.Cache // body → canonical key alias for routing
	tracer  *trace.Tracer
	spans   *trace.Ring

	requests *promtext.CounterVec   // backend, code
	routed   *promtext.CounterVec   // route (owner | fallback | any)
	proxySSE *promtext.CounterVec   // backend
	stages   *promtext.HistogramVec // stage (read | route | forward | stream)
}

// stageForSpan maps lb span names to their ringschedlb_stage_seconds
// stage label, as the replica's stage histogram is derived from its own.
var stageForSpan = map[string]string{
	"lb.read":    "read",
	"lb.route":   "route",
	"lb.forward": "forward",
	"lb.stream":  "stream",
}

// New builds a front door over cfg.Backends. Every backend starts
// routable until its first probe lands (CheckOnce or Run).
func New(cfg Config) (*Balancer, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("ringsched-lb: at least one backend required")
	}
	if cfg.CheckTimeout <= 0 {
		cfg.CheckTimeout = time.Second
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	l := &Balancer{
		ring: cluster.New(cfg.VNodes, cfg.Backends...),
		mux:  http.NewServeMux(),
		keys: service.NewCache(routeKeyBytes),
		pool: ringschedclient.NewPool(ringschedclient.Options{
			MaxRetries: cfg.Retries,
			Deadline:   cfg.Deadline,
			Hedge:      cfg.Hedge,
		}),
		requests: promtext.NewCounterVec("ringschedlb_requests_total",
			"Requests proxied by backend and status code."),
		routed: promtext.NewCounterVec("ringschedlb_routed_total",
			"Routing decisions: owner (shard owner served), fallback (owner skipped or failed over), any (no shard key — undecodable body or unsharded endpoint)."),
		proxySSE: promtext.NewCounterVec("ringschedlb_sse_streams_total",
			"SSE streams proxied by backend."),
		stages: promtext.NewHistogramVec("ringschedlb_stage_seconds",
			"Time per lb pipeline stage (read | route | forward | stream), derived from spans."),
		spans: trace.NewRing(4096),
	}
	l.checker = cluster.NewChecker(l.ring.Members(), cluster.CheckerConfig{
		Interval: cfg.CheckInterval,
		Timeout:  cfg.CheckTimeout,
		Rise:     cfg.Rise,
		Fall:     cfg.Fall,
		OnChange: func(member string, healthy bool) {
			cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "backend health changed",
				slog.String("backend", member), slog.Bool("healthy", healthy))
		},
	})
	l.tracer = trace.New(trace.Tee(l.spans, service.StageSink(l.stages, stageForSpan)))
	// Each API route is mounted at the path it forwards to.
	l.mux.HandleFunc("/v1/analyze", l.route("analyze"))
	l.mux.HandleFunc("/v1/sweep", l.route("sweep"))
	l.mux.HandleFunc("/v1/topology/analyze", l.route("topology"))
	l.mux.HandleFunc("/v1/experiments", l.route("experiments"))
	l.mux.HandleFunc("/healthz", l.handleHealthz)
	l.mux.HandleFunc("/metrics", l.handleMetrics)
	// The federated trace view: the lb holds its own spans and scatters
	// to every configured backend without asking for local spans only,
	// so a backend running -peers the lb does not front still contributes
	// its peers' spans (the merge dedups any overlap).
	l.mux.Handle("/debug/traces", &trace.DebugServer{
		Ring:  l.spans,
		Self:  "ringsched-lb",
		Peers: func() []string { return l.ring.Members() },
		Fetch: func(ctx context.Context, backend, traceID string) ([]trace.Record, error) {
			return l.pool.Client(backend).Spans(ctx, traceID, false)
		},
		ScatterTimeout: cfg.CheckTimeout,
	})
	return l, nil
}

// Handler returns the root handler.
func (l *Balancer) Handler() http.Handler { return l.mux }

// CheckOnce probes every backend once and returns when every probe has
// resolved; run it before serving so the first routing decisions see
// fresh health.
func (l *Balancer) CheckOnce(ctx context.Context) { l.checker.CheckOnce(ctx) }

// Run probes the backends every CheckInterval until ctx ends, and
// returns then.
func (l *Balancer) Run(ctx context.Context) { l.checker.Run(ctx) }

// routeKeyBytes budgets the lb's body-to-key alias. An alias entry is
// charged its whole body, so 4 MiB holds about 950 distinct 55-stream
// analyze bodies (4.2 KB each, plus the tag, the 64-byte key and the
// entry overhead). It stays 4 MiB because it bounds the lb's memory: a
// body that is not resident, or is past a shard's 256 KiB, still routes
// by the key a decode gives, at the cost of that decode.
const routeKeyBytes = 4 << 20

// candidates orders the backends to try: the healthy owner first, then
// every other healthy backend. route describes the decision for metrics.
func (l *Balancer) candidates(key string, haveKey bool) (list []string, route string) {
	healthy := l.checker.HealthyMembers()
	if !haveKey {
		return healthy, "any"
	}
	owner := l.ring.Owner(key)
	if owner == "" {
		return healthy, "any"
	}
	if !l.checker.Healthy(owner) {
		return healthy, "fallback"
	}
	list = append(list, owner)
	for _, m := range healthy {
		if m != owner {
			list = append(list, m)
		}
	}
	return list, "owner"
}

// route builds the handler for one API endpoint.
func (l *Balancer) route(endpoint string) http.HandlerFunc {
	rootName := "lb." + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		// Adopt the client's trace ID (or mint one): the span rides the
		// context into ringschedclient, which forwards the header, so the
		// client, the lb, and the serving replica share one trace.
		id, _ := trace.ParseTraceID(r.Header.Get("X-Ringsched-Trace"))
		ctx, sp := l.tracer.StartRoot(r.Context(), rootName, id)
		defer sp.End()
		w.Header().Set("X-Ringsched-Trace", sp.TraceID().String())

		// Honor the client's deadline budget; ringschedclient re-derives
		// the header for the backend leg from the context deadline.
		ctx, cancel, err := service.WithClientDeadline(ctx, r)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, err)
			return
		}
		defer cancel()

		rdsp := trace.StartLeaf(ctx, "lb.read")
		buf, err := service.ReadBody(r.Body)
		rdsp.End()
		defer service.ReleaseBody(buf) // the forward below still reads it
		if err != nil {
			// A body past the cap is refused here: forwarding its first
			// MaxBodyBytes would make every backend reject a cut body.
			service.WriteError(w, service.StatusFor(err), err)
			return
		}
		body := *buf
		// A body routed before costs a lookup of its exact bytes, a new
		// one is keyed as a backend keys it. One that does not decode or
		// canonicalize goes to any healthy backend, which answers its 400:
		// the lb never invents its own request validation.
		rtsp := trace.StartLeaf(ctx, "lb.route")
		key, haveKey := "", false
		if r.Method == http.MethodPost && endpoint != "experiments" {
			key, haveKey = l.keys.KeyOf(endpoint, body)
		}
		cands, route := l.candidates(key, haveKey)
		rtsp.SetAttr("route", route)
		rtsp.End()
		l.routed.Add(promtext.Labels("route", route), 1)
		sp.SetAttr("route", route)
		if len(cands) == 0 {
			writeUnavailable(w, "no healthy backends")
			return
		}
		if service.WantsSSE(r) {
			l.proxySSE.Add(promtext.Labels("backend", cands[0]), 1)
			sctx, ssp := trace.Start(ctx, "lb.stream")
			l.streamProxy(sctx, w, r, cands[0], body)
			ssp.End()
			return
		}
		fctx, fsp := trace.Start(ctx, "lb.forward")
		l.forward(fctx, w, r, cands, body)
		fsp.End()
	}
}

// forward tries each candidate through its resilient client until one
// answers. Server-side failures (5xx, transport, open breaker) fail over
// to the next candidate; client-blamed responses (4xx, including 429
// rate limiting) are returned verbatim — another backend would reject
// them identically, or the rate limit exists to be enforced.
func (l *Balancer) forward(ctx context.Context, w http.ResponseWriter, r *http.Request, cands []string, body []byte) {
	// The client's identity rides along, so the backend's per-client
	// rate limiting keys on the real client, not on the lb.
	extra := http.Header{}
	if v := r.Header.Get("X-Ringsched-Client"); v != "" {
		extra.Set("X-Ringsched-Client", v)
	}
	var lastErr error
	for i, backend := range cands {
		resp, hdr, err := l.pool.Client(backend).CallHeader(ctx, r.Method, r.URL.Path, json.RawMessage(body), extra)
		if err == nil {
			l.requests.Add(promtext.Labels("backend", backend, "code", "200"), 1)
			if i > 0 {
				l.routed.Add(promtext.Labels("route", "fallback"), 1)
			}
			w.Header().Set("Content-Type", "application/json")
			if xc := hdr.Get("X-Cache"); xc != "" {
				w.Header().Set("X-Cache", xc)
			}
			w.Header().Set("X-Ringsched-Backend", backend)
			w.Write(resp)
			return
		}
		lastErr = err
		var ae *ringschedclient.APIError
		if errors.As(err, &ae) {
			l.requests.Add(promtext.Labels("backend", backend, "code", strconv.Itoa(ae.Status)), 1)
			if ae.Status < http.StatusInternalServerError {
				// The backend blamed the request (400, 429, ...): answer
				// its typed error through its own writer instead of
				// shopping for a second opinion.
				w.Header().Set("X-Ringsched-Backend", backend)
				service.WriteError(w, ae.Status, &resilience.Error{
					Code: ae.Code, Status: ae.Status, Message: ae.Message, RetryAfter: ae.RetryAfter,
				})
				return
			}
			continue // 5xx: try the next backend
		}
		l.requests.Add(promtext.Labels("backend", backend, "code", "error"), 1)
		if ctx.Err() != nil {
			break // the client's deadline elapsed; stop burning backends
		}
	}
	writeUnavailable(w, fmt.Sprintf("all backends failed (last: %v)", lastErr))
}

// streamProxy forwards an SSE request raw: single attempt against the
// chosen backend, response bytes copied through with flushes, no retry
// (a half-delivered stream must not restart invisibly).
func (l *Balancer) streamProxy(ctx context.Context, w http.ResponseWriter, r *http.Request, backend string, body []byte) {
	url := "http://" + backend + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, strings.NewReader(string(body)))
	if err != nil {
		writeUnavailable(w, err.Error())
		return
	}
	for _, h := range []string{"Content-Type", "Accept", "X-Ringsched-Client", "X-Ringsched-Trace", service.DeadlineHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		l.requests.Add(promtext.Labels("backend", backend, "code", "error"), 1)
		writeUnavailable(w, err.Error())
		return
	}
	defer resp.Body.Close()
	l.requests.Add(promtext.Labels("backend", backend, "code", strconv.Itoa(resp.StatusCode)), 1)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Ringsched-Backend", backend)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// writeUnavailable answers the lb's own typed 503, with the replica's
// default one-second retry hint.
func writeUnavailable(w http.ResponseWriter, msg string) {
	service.WriteError(w, http.StatusServiceUnavailable,
		resilience.Errorf(resilience.CodeUnavailable, http.StatusServiceUnavailable, "ringsched-lb: %s", msg))
}

// handleHealthz: the lb is healthy while it can route anywhere.
func (l *Balancer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	healthy := l.checker.HealthyMembers()
	if len(healthy) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no healthy backends"}`)
		return
	}
	fmt.Fprintf(w, `{"status":"ok","healthyBackends":%d}`+"\n", len(healthy))
}

func (l *Balancer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	l.requests.Write(w)
	l.routed.Write(w)
	l.proxySSE.Write(w)
	l.stages.Write(w)
	promtext.BuildInfo(w, "ringschedlb")
	states := l.checker.States()
	gauges := []promtext.GaugeFunc{
		{Name: "ringschedlb_backends", Help: "Configured backends.",
			Fn: func() float64 { return float64(l.ring.Size()) }},
		{Name: "ringschedlb_backends_healthy", Help: "Backends currently passing health checks.",
			Fn: func() float64 { return float64(len(l.checker.HealthyMembers())) }},
	}
	for _, g := range gauges {
		g.Write(w)
	}
	// Per-backend health as explicit 0/1 samples.
	fmt.Fprintf(w, "# HELP ringschedlb_backend_healthy Whether the backend is currently routable (1) or failed out (0).\n")
	fmt.Fprintf(w, "# TYPE ringschedlb_backend_healthy gauge\n")
	for _, st := range states {
		v := 0
		if st.Healthy {
			v = 1
		}
		fmt.Fprintf(w, "ringschedlb_backend_healthy%s %d\n",
			promtext.Labels("backend", st.Member), v)
	}
}
