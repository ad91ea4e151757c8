// Command ringsched-lb is the cluster front door for a sharded ringschedd
// deployment: it health-checks the member set, routes each cacheable API
// request to the replica that owns its canonical key on the cluster's
// consistent-hash ring (so the shard caches stay hot and an identical
// burst lands on one coalescing point), and fails over to any healthy
// replica when the owner is down or misbehaving. Requests whose body
// cannot be decoded are routed to any healthy backend, which produces the
// canonical 400.
//
// Per-backend resilience comes from ringschedclient: each backend gets
// its own circuit breaker, retries are budgeted, and Retry-After hints
// are honored. Streaming sweeps (SSE) are proxied raw to the owner.
//
// Usage:
//
//	ringsched-lb -backends 10.0.0.1:8081,10.0.0.2:8081,10.0.0.3:8081
//	ringsched-lb -addr :8090 -backends a:8081,b:8081 -rise 2 -fall 3
//	curl -s localhost:8090/healthz
//	curl -s localhost:8090/metrics | grep ringschedlb
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ringsched/internal/cli"
	"ringsched/internal/cluster"
	"ringsched/internal/promtext"
	"ringsched/internal/service"
	"ringsched/internal/trace"
	"ringsched/ringschedclient"
)

func main() {
	cli.Main("ringsched-lb", run)
}

// lbConfig tunes the front door; the zero value is filled by defaults.
type lbConfig struct {
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

// lb routes requests for one backend set. It is safe for concurrent use.
type lb struct {
	cfg     lbConfig
	ring    *cluster.Ring
	checker *cluster.Checker
	pool    *ringschedclient.Pool
	mux     *http.ServeMux
	keys    *service.Cache // body → canonical key alias for routing
	tracer  *trace.Tracer
	spans   *trace.Ring
	logger  *slog.Logger

	requests *promtext.CounterVec   // backend, code
	routed   *promtext.CounterVec   // route (owner | fallback | any)
	proxySSE *promtext.CounterVec   // backend
	stages   *promtext.HistogramVec // stage (read | route | forward | stream)
}

// lbStageLabels maps lb span names to their rendered stage label of
// ringschedlb_stage_seconds, mirroring the backend's stage histogram;
// the labels are rendered once, so a finished span renders none.
var lbStageLabels = map[string]string{
	"lb.read":    promtext.Labels("stage", "read"),
	"lb.route":   promtext.Labels("stage", "route"),
	"lb.forward": promtext.Labels("stage", "forward"),
	"lb.stream":  promtext.Labels("stage", "stream"),
}

func newLB(cfg lbConfig) (*lb, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("ringsched-lb: at least one backend required")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 500 * time.Millisecond
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
	l := &lb{
		cfg:    cfg,
		ring:   cluster.New(cfg.VNodes, cfg.Backends...),
		mux:    http.NewServeMux(),
		keys:   service.NewCache(routeKeyBytes),
		logger: cfg.Logger,
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
			l.logger.LogAttrs(context.Background(), slog.LevelWarn, "backend health changed",
				slog.String("backend", member), slog.Bool("healthy", healthy))
		},
	})
	stageSink := trace.SinkFunc(func(f trace.Finished) {
		if stage, ok := lbStageLabels[f.Name]; ok {
			l.stages.Observe(stage, f.DurationUS()/1e6)
		}
	})
	l.tracer = trace.New(trace.Tee(l.spans, stageSink))
	l.mux.HandleFunc("/v1/analyze", l.route("analyze"))
	l.mux.HandleFunc("/v1/sweep", l.route("sweep"))
	l.mux.HandleFunc("/v1/topology/analyze", l.route("topology"))
	l.mux.HandleFunc("/v1/experiments", l.route("experiments"))
	l.mux.HandleFunc("/healthz", l.handleHealthz)
	l.mux.HandleFunc("/metrics", l.handleMetrics)
	// The federated trace view: the lb holds its own spans and scatters
	// to every configured backend WITHOUT local=1, so a backend running
	// -peers the lb does not front still contributes its peers' spans
	// (the merge dedups any overlap).
	l.mux.Handle("/debug/traces", &trace.DebugServer{
		Ring:           l.spans,
		Self:           "ringsched-lb",
		Peers:          func() []string { return l.ring.Members() },
		Fetch:          l.fetchBackendTrace,
		ScatterTimeout: cfg.CheckTimeout,
	})
	return l, nil
}

// Handler returns the root handler.
func (l *lb) Handler() http.Handler { return l.mux }

// fetchBackendTrace pulls one backend's view of a trace through the same
// breaker-isolated client pool as proxied requests. No local=1 here: a
// clustered backend answers with its whole peer set's spans, already
// member-stamped, and Merge dedups whatever overlaps.
func (l *lb) fetchBackendTrace(ctx context.Context, backend, traceID string) ([]trace.Record, error) {
	body, err := l.pool.Client(backend).Call(ctx, http.MethodGet,
		"/debug/traces?trace="+url.QueryEscape(traceID), nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Spans []trace.Record `json:"spans"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("ringsched-lb: bad trace response from %s: %v", backend, err)
	}
	return resp.Spans, nil
}

// routeKeyBytes budgets the lb's body-to-key alias. An alias entry is
// charged its whole body, so 4 MiB holds about 950 distinct 55-stream
// analyze bodies (4.2 KB each, plus the tag, the 64-byte key and the
// entry overhead). It stays 4 MiB because it bounds the lb's memory: a
// body that is not resident, or is past a shard's 256 KiB, still routes
// by the key a decode gives, at the cost of that decode.
const routeKeyBytes = 4 << 20

// shardKey returns the canonical cluster key of one cacheable request
// body through the same alias the backends use: a body routed before
// costs a lookup of its exact bytes, a new one is decoded, canonicalized
// and keyed once. ok is false when the body does not decode or canonicalize
// — such requests are routed to any healthy backend, which answers with
// the canonical 400 (the lb never invents its own request validation).
func (l *lb) shardKey(endpoint string, body []byte) (string, bool) {
	return l.keys.KeyOf(endpoint, body)
}

// candidates orders the backends to try: the healthy owner first, then
// every other healthy backend. route describes the decision for metrics.
func (l *lb) candidates(key string, haveKey bool) (list []string, route string) {
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

// passthrough lifts the client-identity header off the inbound request so
// the backend's per-client rate limiting keys on the real client, not on
// the lb.
func passthrough(r *http.Request) http.Header {
	extra := http.Header{}
	if v := r.Header.Get("X-Ringsched-Client"); v != "" {
		extra.Set("X-Ringsched-Client", v)
	}
	return extra
}

// route builds the handler for one API endpoint.
func (l *lb) route(endpoint string) http.HandlerFunc {
	path := map[string]string{
		"analyze":     "/v1/analyze",
		"sweep":       "/v1/sweep",
		"topology":    "/v1/topology/analyze",
		"experiments": "/v1/experiments",
	}[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		// Adopt the client's trace ID (or mint one): the span rides the
		// context into ringschedclient, which forwards the header, so the
		// client, the lb, and the serving replica share one trace.
		id, _ := trace.ParseTraceID(r.Header.Get("X-Ringsched-Trace"))
		ctx, sp := l.tracer.StartRoot(r.Context(), "lb."+endpoint, id)
		defer sp.End()
		w.Header().Set("X-Ringsched-Trace", sp.TraceID().String())

		// Honor the client's deadline budget; ringschedclient re-derives
		// the header for the backend leg from the context deadline.
		if raw := r.Header.Get("X-Ringsched-Deadline-Ms"); raw != "" {
			if ms, err := strconv.ParseInt(raw, 10, 64); err == nil && ms > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
				defer cancel()
			}
		}

		rdsp := trace.StartLeaf(ctx, "lb.read")
		body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxBodyBytes+1))
		rdsp.End()
		if err != nil {
			http.Error(w, `{"error":"ringsched-lb: read body","code":"bad_request"}`, http.StatusBadRequest)
			return
		}
		if len(body) > service.MaxBodyBytes {
			// Forwarding the first MaxBodyBytes would make every backend
			// reject a cut body and the client see a retryable 503.
			writeTooLarge(w)
			return
		}
		rtsp := trace.StartLeaf(ctx, "lb.route")
		key, haveKey := "", false
		if r.Method == http.MethodPost && endpoint != "experiments" {
			key, haveKey = l.shardKey(endpoint, body)
		}
		cands, route := l.candidates(key, haveKey)
		rtsp.SetAttr("route", route)
		rtsp.End()
		l.routed.Add(promtext.Labels("route", route), 1)
		sp.SetAttr("route", route)
		if len(cands) == 0 {
			l.writeUnavailable(w, "no healthy backends")
			return
		}
		if wantsSSE(r) {
			l.proxySSE.Add(promtext.Labels("backend", cands[0]), 1)
			sctx, ssp := trace.Start(ctx, "lb.stream")
			l.streamProxy(sctx, w, r, cands[0], path, body)
			ssp.End()
			return
		}
		fctx, fsp := trace.Start(ctx, "lb.forward")
		l.forward(fctx, w, r, endpoint, path, cands, body)
		fsp.End()
	}
}

// forward tries each candidate through its resilient client until one
// answers. Server-side failures (5xx, transport, open breaker) fail over
// to the next candidate; client-blamed responses (4xx, including 429
// rate limiting) are returned verbatim — another backend would reject
// them identically, or the rate limit exists to be enforced.
func (l *lb) forward(ctx context.Context, w http.ResponseWriter, r *http.Request, endpoint, path string, cands []string, body []byte) {
	extra := passthrough(r)
	var lastErr error
	for i, backend := range cands {
		cli := l.pool.Client(backend)
		var payload any
		if len(body) > 0 {
			payload = json.RawMessage(body)
		}
		resp, hdr, err := cli.CallHeader(ctx, r.Method, path, payload, extra)
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
				// verbatim instead of shopping for a second opinion.
				writeAPIError(w, backend, ae)
				return
			}
			continue // 5xx: try the next backend
		}
		l.requests.Add(promtext.Labels("backend", backend, "code", "error"), 1)
		if ctx.Err() != nil {
			break // the client's deadline elapsed; stop burning backends
		}
	}
	l.writeUnavailable(w, fmt.Sprintf("all backends failed (last: %v)", lastErr))
}

// streamProxy forwards an SSE request raw: single attempt against the
// chosen backend, response bytes copied through with flushes, no retry
// (a half-delivered stream must not restart invisibly).
func (l *lb) streamProxy(ctx context.Context, w http.ResponseWriter, r *http.Request, backend, path string, body []byte) {
	url := "http://" + backend + path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, strings.NewReader(string(body)))
	if err != nil {
		l.writeUnavailable(w, err.Error())
		return
	}
	for _, h := range []string{"Content-Type", "Accept", "X-Ringsched-Client", "X-Ringsched-Trace", "X-Ringsched-Deadline-Ms"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		l.requests.Add(promtext.Labels("backend", backend, "code", "error"), 1)
		l.writeUnavailable(w, err.Error())
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

// writeAPIError reproduces a backend's typed rejection on the lb's own
// response, preserving code, message, and Retry-After.
func writeAPIError(w http.ResponseWriter, backend string, ae *ringschedclient.APIError) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ringsched-Backend", backend)
	if ae.RetryAfter > 0 {
		secs := int64((ae.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(ae.Status)
	msg, _ := json.Marshal(map[string]any{
		"error": ae.Message, "code": string(ae.Code),
		"retryAfterMs": int64(ae.RetryAfter / time.Millisecond),
	})
	w.Write(append(msg, '\n'))
}

// writeTooLarge refuses a body past service.MaxBodyBytes with a typed 413.
func writeTooLarge(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusRequestEntityTooLarge)
	body, _ := json.Marshal(map[string]any{
		"error": fmt.Sprintf("ringsched-lb: request body exceeds %d bytes", service.MaxBodyBytes),
		"code":  "bad_request",
	})
	w.Write(append(body, '\n'))
}

func (l *lb) writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	body, _ := json.Marshal(map[string]any{
		"error": "ringsched-lb: " + msg, "code": "unavailable", "retryAfterMs": 1000,
	})
	w.Write(append(body, '\n'))
}

// handleHealthz: the lb is healthy while it can route anywhere.
func (l *lb) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	healthy := l.checker.HealthyMembers()
	if len(healthy) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no healthy backends"}`)
		return
	}
	fmt.Fprintf(w, `{"status":"ok","healthyBackends":%d}`+"\n", len(healthy))
}

func (l *lb) handleMetrics(w http.ResponseWriter, _ *http.Request) {
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

// wantsSSE mirrors the backend's own SSE detection.
func wantsSSE(r *http.Request) bool {
	return r.Header.Get("Accept") == "text/event-stream" || r.URL.Query().Get("stream") == "sse"
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringsched-lb", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", ":8090", "listen address (host:port; port 0 picks a free port)")
		backends = fs.String("backends", "", "comma-separated backend addresses (host:port,...); required")
		vnodes   = fs.Int("vnodes", 0,
			"consistent-hash virtual nodes per backend; must match the backends' -peer-vnodes (0 = default 128)")
		checkInterval = fs.Duration("check-interval", 500*time.Millisecond, "health probe period")
		checkTimeout  = fs.Duration("check-timeout", time.Second, "health probe timeout")
		rise          = fs.Int("rise", 2, "consecutive probe successes before an unhealthy backend rejoins")
		fall          = fs.Int("fall", 2, "consecutive probe failures before a backend is failed out")
		retries       = fs.Int("retries", 0, "per-call retries toward one backend (0 = client default 3, negative = none)")
		deadline      = fs.Duration("deadline", 30*time.Second, "default per-request deadline toward backends")
		hedge         = fs.Duration("hedge", 0, "hedge delay for duplicate requests (0 = off)")
		drain         = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain budget")
	)
	var obs cli.Obs
	obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, logger, err := obs.Setup(ctx, errw)
	if err != nil {
		return err
	}
	defer obs.Close()

	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	l, err := newLB(lbConfig{
		Backends:      list,
		VNodes:        *vnodes,
		CheckInterval: *checkInterval,
		CheckTimeout:  *checkTimeout,
		Rise:          *rise,
		Fall:          *fall,
		Retries:       *retries,
		Deadline:      *deadline,
		Hedge:         *hedge,
		Logger:        logger,
	})
	if err != nil {
		return err
	}

	checkCtx, stopChecks := context.WithCancel(context.Background())
	defer stopChecks()
	l.checker.CheckOnce(checkCtx)
	go l.checker.Run(checkCtx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("backends", len(list)))

	hs := &http.Server{Handler: l.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "draining", slog.Duration("budget", *drain))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		hs.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "stopped")
	return nil
}
