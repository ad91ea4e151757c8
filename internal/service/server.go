package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ringsched/internal/progress"
	"ringsched/internal/resilience"
	"ringsched/internal/ringstate"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// CacheBytes is the result cache budget (default 64 MiB).
	CacheBytes int64
	// Workers bounds concurrent computations (default GOMAXPROCS).
	Workers int
	// JobTimeout deadlines each computation (default 5m; negative
	// disables).
	JobTimeout time.Duration
	// SampleEvery coalesces SSE sample events (default 64).
	SampleEvery int64
	// Logger receives one structured record per API request (and drain /
	// lifecycle events from the daemon). nil discards logs.
	Logger *slog.Logger
	// TraceSpans is the capacity of the in-memory span ring behind
	// /debug/traces (default 4096).
	TraceSpans int
	// TraceSink, when non-nil, additionally receives every finished span
	// (e.g. a JSONL file sink); the in-memory ring and the stage-latency
	// histograms are always fed regardless.
	TraceSink trace.Sink
	// QueueDepth bounds computations waiting for a worker slot before
	// arrivals are shed with 503 (default 4×Workers; negative disables
	// the bound — deadline-infeasibility shedding still applies).
	QueueDepth int
	// ClientRPS enables per-client token-bucket rate limiting at this
	// many requests per second (0 disables).
	ClientRPS float64
	// ClientBurst is the per-client burst allowance (default 2×ClientRPS,
	// minimum 1). Only meaningful when ClientRPS > 0.
	ClientBurst float64
	// MaxClients bounds resident rate-limiter buckets (default 1024).
	MaxClients int
	// Chaos configures deterministic fault injection on the API
	// endpoints; the zero model injects nothing.
	Chaos resilience.ChaosModel
	// SSEKeepAlive is the idle heartbeat interval for progress streams
	// (default 15s; negative disables).
	SSEKeepAlive time.Duration
	// Advertise is this process's own cluster member address (host:port)
	// as peers reach it. Empty disables the cluster layer entirely.
	Advertise string
	// Peers lists the other members' advertise addresses. The member set
	// every process computes is Peers ∪ {Advertise}, so all replicas must
	// be configured with the same total set (in any order).
	Peers []string
	// PeerFillTimeout bounds one outbound peer cache-fill round trip
	// (default 2s); on expiry the process computes locally.
	PeerFillTimeout time.Duration
	// PeerVNodes is the consistent-hash virtual-node count per member
	// (default cluster.DefaultVNodes). All members must agree.
	PeerVNodes int
	// MaxRings bounds resident /v1/rings sessions (default
	// ringstate.DefaultMaxRings).
	MaxRings int
	// MaxRingStreams bounds streams per ring session (default
	// ringstate.DefaultMaxRingStreams).
	MaxRingStreams int
	// RequestLog is the capacity of the request flight recorder behind
	// /debug/requests (default 4096).
	RequestLog int
	// SlowThreshold classifies a request as "slow" for the SLO burn-rate
	// counters and the bare ?slow filter (default 1s).
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.JobTimeout < 0 {
		c.JobTimeout = 0
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 4096
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.ClientRPS > 0 && c.ClientBurst <= 0 {
		c.ClientBurst = 2 * c.ClientRPS
		if c.ClientBurst < 1 {
			c.ClientBurst = 1
		}
	}
	if c.SSEKeepAlive == 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.SSEKeepAlive < 0 {
		c.SSEKeepAlive = 0
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.RequestLog <= 0 {
		c.RequestLog = 4096
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = time.Second
	}
	return clusterDefaults(c)
}

// discardHandler is the nil Config.Logger: its Enabled reports false, so
// the per-request record is never built (a text handler writing to
// io.Discard still formats every record and captures its caller).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// Server is the ringschedd HTTP API: /v1/analyze, /v1/sweep,
// /v1/experiments, /healthz and /metrics. Create one with New, expose it
// via Handler, and stop it with BeginDrain (reject new work) followed by
// Close (cancel whatever is still running).
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	cache  *Cache
	flight *flightGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	inflight   atomic.Int64

	tracer *trace.Tracer
	spans  *trace.Ring
	logger *slog.Logger

	admission *resilience.Admission
	limiter   *resilience.Limiter
	chaos     *resilience.Chaos
	clust     *clusterState
	rings     *ringstate.Store

	requests    *counterVec   // endpoint, code
	latency     *histogramVec // endpoint
	computes    *counterVec   // endpoint
	verdicts    *counterVec   // protocol, schedulable
	canceled    *counterVec   // endpoint
	sseStream   *counterVec   // endpoint (streams opened)
	stages      *histogramVec // stage (trace-derived)
	shed        *counterVec   // endpoint, reason (queue_full | deadline)
	ratelimited *counterVec   // endpoint
	panics      *counterVec   // endpoint
	chaosInj    *counterVec   // kind (latency | error | reset)
	peerFill    *counterVec   // result (hit | miss | error); nil unless clustered

	ringEdits      *counterVec   // op (create | add | modify | remove | delete), outcome
	reprobeStreams *histogramVec // op — streams re-analyzed per incremental edit

	recorder  *recorder
	slo       *counterVec // endpoint, class (good | slow | error)
	exemplars *exemplarVec

	// sweep computes a canonical sweep for both of /v1/sweep's routes:
	// sweepCanonical, or in a test a result no known input produces.
	sweep func(ctx context.Context, req SweepRequest, key string, workers int, obs progress.Progress) (SweepResponse, error)
}

// stageForSpan maps span names to the /metrics stage label of
// ringschedd_stage_seconds (see StageSink).
var stageForSpan = map[string]string{
	"decode":       "decode",
	"canonicalize": "canonicalize",
	"key":          "key",
	"cache.lookup": "cache",
	"kernel":       "kernel",
	"encode":       "encode",
}

// endpointLabelOf holds the rendered endpoint label of every API
// endpoint, and verdictLabelOf the (protocol, schedulable) label of every
// protocol slug, indexed by the verdict; a request renders neither.
var endpointLabelOf, verdictLabelOf = func() (map[string]string, map[string][2]string) {
	endpoints := map[string]string{}
	for _, e := range []string{"analyze", "topology", "sweep", "experiments", "rings"} {
		endpoints[e] = labels("endpoint", e)
	}
	verdicts := map[string][2]string{}
	for _, p := range wire.AllProtocols() {
		verdicts[p] = [2]string{
			labels("protocol", p, "schedulable", "false"),
			labels("protocol", p, "schedulable", "true"),
		}
	}
	return endpoints, verdicts
}()

// endpointLabel returns the endpoint label of endpoint, rendering it only
// for a name outside endpointLabelOf.
func endpointLabel(endpoint string) string {
	if l, ok := endpointLabelOf[endpoint]; ok {
		return l
	}
	return labels("endpoint", endpoint)
}

// verdictLabel returns the ringschedd_verdicts_total label of one
// verdict, rendering it only for a protocol outside verdictLabelOf.
func verdictLabel(protocol string, schedulable bool) string {
	l, ok := verdictLabelOf[protocol]
	switch {
	case !ok:
		return labels("protocol", protocol, "schedulable", strconv.FormatBool(schedulable))
	case schedulable:
		return l[1]
	default:
		return l[0]
	}
}

// statusesWritten are the statuses the handlers and middleware write; an
// endpoint's (code, endpoint) label strings are rendered for these once.
var statusesWritten = []int{
	http.StatusOK, http.StatusCreated, http.StatusNoContent,
	http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusConflict,
	http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
	http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout,
}

// endpointLabels are one endpoint's metric label strings, rendered when
// the endpoint is registered so a request builds none: its endpoint
// label, its (code, endpoint) pair for every status in statusesWritten
// and its (class, endpoint) pair for every SLO class. A status outside
// the table (one the chaos middleware injects, say) is rendered when it
// occurs.
type endpointLabels struct {
	name     string
	endpoint string
	codes    map[int]string
	classes  map[string]string
}

func newEndpointLabels(endpoint string) *endpointLabels {
	l := &endpointLabels{
		name:     endpoint,
		endpoint: endpointLabel(endpoint),
		codes:    make(map[int]string, len(statusesWritten)),
		classes:  make(map[string]string, 3),
	}
	for _, code := range statusesWritten {
		l.codes[code] = labels("code", strconv.Itoa(code), "endpoint", endpoint)
	}
	for _, class := range []string{"good", "slow", "error"} {
		l.classes[class] = labels("class", class, "endpoint", endpoint)
	}
	return l
}

// code returns the (code, endpoint) label string.
func (l *endpointLabels) code(code int) string {
	if s, ok := l.codes[code]; ok {
		return s
	}
	return labels("code", strconv.Itoa(code), "endpoint", l.name)
}

// New builds a Server ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		cache:      NewCache(cfg.CacheBytes),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		spans:      trace.NewRing(cfg.TraceSpans),
		logger:     cfg.Logger,
		requests:   newCounterVec("ringschedd_requests_total", "HTTP requests by endpoint and status code."),
		latency:    newHistogramVec("ringschedd_request_seconds", "HTTP request latency by endpoint."),
		computes:   newCounterVec("ringschedd_computations_total", "Underlying computations performed (cache misses that were not coalesced)."),
		verdicts:   newCounterVec("ringschedd_verdicts_total", "Analysis verdicts by protocol and outcome."),
		canceled:   newCounterVec("ringschedd_canceled_total", "Requests that ended with a canceled or expired context."),
		sseStream:  newCounterVec("ringschedd_sse_streams_total", "Progress streams opened by endpoint."),
		stages:     newHistogramVec("ringschedd_stage_seconds", "Trace-derived latency by request stage (decode, canonicalize, key, cache, kernel, encode)."),
		shed:       newCounterVec("ringschedd_shed_total", "Requests shed on arrival by the admission controller, by endpoint and reason."),
		ratelimited: newCounterVec("ringschedd_ratelimited_total",
			"Requests rejected by the per-client rate limiter."),
		panics: newCounterVec("ringschedd_panics_total", "Handler panics recovered and answered with 500."),
		chaosInj: newCounterVec("ringschedd_chaos_injections_total",
			"Faults injected by the chaos middleware, by kind."),
		ringEdits: newCounterVec("ringschedd_ring_edits_total",
			"Ring-session mutations by operation and outcome (ok | conflict | error)."),
		reprobeStreams: newHistogramVec("ringschedd_reprobe_streams",
			"Streams re-analyzed per incremental ring edit, by operation."),
		recorder: newRecorder(cfg.RequestLog),
		sweep:    sweepCanonical,
		slo: newCounterVec("ringschedd_slo_requests_total",
			"Finished requests by endpoint and SLO class (good | slow | error), for burn-rate alerting."),
		exemplars: newExemplarVec("ringschedd_request_seconds_exemplars",
			"Most recent trace exemplar per request-latency bucket; value is that sample's latency in seconds."),
	}
	s.rings = ringstate.NewStore(cfg.MaxRings, cfg.MaxRingStreams)
	s.admission = resilience.NewAdmission(cfg.Workers, cfg.QueueDepth)
	if cfg.ClientRPS > 0 {
		s.limiter = resilience.NewLimiter(cfg.ClientRPS, cfg.ClientBurst, cfg.MaxClients)
	}
	if cfg.Chaos.Enabled() {
		s.chaos = resilience.NewChaos(cfg.Chaos)
		s.chaos.OnInject = func(kind string) { s.chaosInj.Add(labels("kind", kind), 1) }
	}
	s.tracer = trace.New(trace.Tee(s.spans, StageSink(s.stages, stageForSpan), cfg.TraceSink))
	s.flight = newFlightGroup(baseCtx, cfg.Workers, cfg.JobTimeout)
	s.flight.observe = s.admission.Observe
	s.mux.HandleFunc("/v1/analyze", s.instrument("analyze", s.handleAnalyze))
	s.mux.HandleFunc("/v1/topology/analyze", s.instrument("topology", s.handleTopology))
	s.mux.HandleFunc("/v1/sweep", s.instrument("sweep", s.handleSweep))
	s.mux.HandleFunc("/v1/experiments", s.instrument("experiments", s.handleExperiments))
	s.mux.HandleFunc("/v1/rings", s.instrument("rings", s.handleRings))
	s.mux.HandleFunc("/v1/rings/", s.instrument("rings", s.handleRingItem))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.initCluster(cfg)
	s.registerDebug()
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain switches the server to draining: /healthz turns 503 (so load
// balancers stop routing here) and new API requests are rejected with
// 503, while requests already in flight run to completion.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close cancels every remaining computation. Call it after the HTTP
// listener has drained (http.Server.Shutdown).
func (s *Server) Close() { s.baseCancel() }

// InFlight returns the number of API requests currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// statusWriter records the response code and passes Flush through so SSE
// works behind the instrumentation wrapper. wrote tracks whether any
// response bytes are committed, so the panic-recovery middleware knows
// whether a 500 can still be written.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errDraining is the typed rejection for a draining server; the caller
// should retry against another replica almost immediately.
var errDraining = &resilience.Error{
	Code: resilience.CodeUnavailable, Status: http.StatusServiceUnavailable,
	Message: "service: draining, not accepting new work", RetryAfter: time.Second,
}

// clientKey identifies a client for rate limiting: the peer host,
// qualified by the X-Ringsched-Client header when present (load
// generators and tests use it to simulate distinct tenants). The header
// refines the transport identity rather than replacing it, so a caller
// minting header values stays inside its own host's keyspace instead of
// impersonating other tenants or spraying arbitrary global keys.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if k := r.Header.Get("X-Ringsched-Client"); k != "" {
		return host + "|" + k
	}
	return host
}

// DeadlineHeader is the client deadline propagation header: the number
// of milliseconds the client is still willing to wait. The server turns
// it into a context deadline, so admission control can shed requests
// whose answers could only arrive too late.
const DeadlineHeader = "X-Ringsched-Deadline-Ms"

// WithClientDeadline bounds ctx by the budget r's DeadlineHeader grants,
// noted on ctx's span; without the header ctx comes back as it is. A value
// that is not a positive integer is a typed 400, the same at every door;
// one past time.Duration's range (about 292 years) grants the longest
// budget a Duration holds.
func WithClientDeadline(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc, error) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return ctx, nil, resilience.Errorf(resilience.CodeBadRequest, http.StatusBadRequest,
			"service: bad %s header %q: want a positive integer", DeadlineHeader, raw)
	}
	budget := time.Duration(math.MaxInt64)
	if ms <= math.MaxInt64/int64(time.Millisecond) {
		budget = time.Duration(ms) * time.Millisecond
	}
	trace.SpanFromContext(ctx).SetAttr("deadlineMs", budget.Milliseconds())
	ctx, cancel := context.WithTimeout(ctx, budget)
	return ctx, cancel, nil
}

// instrument wraps an API handler with the serving middleware chain, from
// the outside in: panic recovery (a handler bug answers 500 instead of
// killing the daemon), in-flight tracking, request/latency metrics, a
// root span and one structured log record, draining rejection, per-client
// rate limiting, client deadline propagation, and deterministic chaos
// injection. A well-formed X-Ringsched-Trace request header is adopted as
// the trace ID (letting clients stitch our spans into their own traces);
// the response always carries the header so a curl user can plug its
// value straight into /debug/traces?trace=.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	// Chaos wraps the innermost handler so injected faults see the final
	// request context (deadline included) and pay the same metrics as
	// real responses; a nil/disabled chaos is a free passthrough.
	inner := s.chaos.Wrap(http.HandlerFunc(h))
	lbl := newEndpointLabels(endpoint)
	rootName := "http." + endpoint
	// A peer fill lands only on a cacheable route (serveCached is the one
	// fill site). Rings and experiments keep the limiter whatever headers
	// a request carries: ring creates and edits pass no admission queue,
	// so the limiter is their only rate bound.
	fillable := endpoint == "analyze" || endpoint == "topology" || endpoint == "sweep"
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		s.inflight.Add(1)

		// A malformed header must not fail the request: fall back to a
		// fresh trace ID and note the rejection on the span.
		id, idErr := trace.ParseTraceID(r.Header.Get("X-Ringsched-Trace"))
		ctx, sp := s.tracer.StartRoot(r.Context(), rootName, id)
		sp.SetAttr("method", r.Method)
		if idErr != nil {
			sp.SetAttr("badTraceHeader", true)
		}
		// A request carrying the hop header to a fillable route of a
		// clustered replica is a peer fill: infrastructure traffic between
		// replicas, not tenant traffic, so the limiter below passes it
		// (throttling it would turn one tenant's burst into cluster-wide
		// fill failures). An SSE sweep is never a fill.
		hop := fillable && s.clust != nil && r.Header.Get(peerHopHeader) != "" && !WantsSSE(r)
		if hop {
			sp.SetAttr("peerHop", true)
		}
		ctx, dig := withDigest(ctx, sp.TraceID().String())
		traceID := dig.traceID[0]
		sw.Header()["X-Ringsched-Trace"] = dig.traceID[:]

		defer func() {
			s.inflight.Add(-1)
			elapsed := time.Since(start)
			s.requests.Add(lbl.code(sw.code), 1)
			s.latency.Observe(lbl.endpoint, elapsed.Seconds())
			s.slo.Add(lbl.classes[sloClass(sw.code, elapsed, s.cfg.SlowThreshold)], 1)
			s.exemplars.Observe(endpoint, traceID, elapsed.Seconds())
			cache := sw.Header().Get("X-Cache")
			s.recorder.Record(RequestRecord{
				Time:      start,
				Method:    r.Method,
				Endpoint:  endpoint,
				Key:       dig.key,
				Code:      sw.code,
				Cache:     cache,
				LatencyMs: float64(elapsed) / float64(time.Millisecond),
				TraceID:   traceID,
			})
			sp.SetAttr("code", sw.code)
			sp.End()
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.Int("code", sw.code),
				slog.Duration("elapsed", elapsed),
				slog.String("cache", cache))
		}()
		// Registered after the metrics defer so it runs first (LIFO): it
		// converts the panic into a 500 and the metrics/log record above
		// then observes that code instead of a torn request.
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// Deliberate connection abort (the chaos middleware's
				// reset process) — let net/http sever the connection.
				sp.SetAttr("aborted", true)
				sw.code = http.StatusServiceUnavailable
				panic(p)
			}
			s.panics.Add(lbl.endpoint, 1)
			sp.SetError(fmt.Errorf("panic: %v", p))
			s.logger.LogAttrs(ctx, slog.LevelError, "panic",
				slog.String("endpoint", endpoint), slog.String("value", fmt.Sprint(p)))
			if !sw.wrote {
				WriteError(sw, http.StatusInternalServerError,
					resilience.Errorf(resilience.CodeInternal, http.StatusInternalServerError,
						"service: internal error"))
			} else {
				sw.code = http.StatusInternalServerError
			}
		}()
		if s.draining.Load() {
			WriteError(sw, http.StatusServiceUnavailable, errDraining)
			return
		}
		if s.limiter != nil && !hop {
			if ok, retryAfter := s.limiter.Allow(clientKey(r), time.Now()); !ok {
				s.ratelimited.Add(lbl.endpoint, 1)
				WriteError(sw, http.StatusTooManyRequests,
					resilience.ErrRateLimited.WithRetryAfter(retryAfter))
				return
			}
		}
		ctx, cancel, err := WithClientDeadline(ctx, r)
		if err != nil {
			WriteError(sw, http.StatusBadRequest, err)
			return
		}
		defer cancel()
		inner.ServeHTTP(sw, r.WithContext(ctx))
	}
}

// errorBody is the wire shape of every error response: a human-readable
// message, a stable machine code, and an optional retry hint.
type errorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
	// CurrentVersion rides along on ring CAS conflicts (409): the ring's
	// actual version, so the client can rebase without an extra GET.
	CurrentVersion uint64 `json:"currentVersion,omitempty"`
}

// codeForStatus backfills a taxonomy code for untyped errors.
func codeForStatus(status int) resilience.Code {
	switch status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed:
		return resilience.CodeBadRequest
	case http.StatusNotFound:
		return resilience.CodeNotFound
	case http.StatusConflict:
		return resilience.CodeConflict
	case http.StatusTooManyRequests:
		return resilience.CodeRateLimited
	case http.StatusServiceUnavailable:
		return resilience.CodeUnavailable
	case http.StatusGatewayTimeout:
		return resilience.CodeDeadline
	default:
		return resilience.CodeInternal
	}
}

// WriteError emits the structured JSON error body with the given status.
// It is the one error writer of both doors: ringsched-lb answers its own
// refusals with it, and rebuilds a replica's typed 4xx through it, so a
// client reads the same bytes from either.
// Every 429/503/504 response carries a Retry-After header: the typed
// error's hint when it has one (rounded up to whole seconds, minimum 1),
// else a default of 1s — so even naive clients that only honor the
// header back off instead of hammering a saturated server.
func WriteError(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error(), Code: string(codeForStatus(code))}
	var retryAfter time.Duration
	if te, ok := resilience.AsError(err); ok {
		body.Code = string(te.Code)
		retryAfter = te.RetryAfter
	}
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		if retryAfter <= 0 {
			retryAfter = time.Second
		}
	}
	if retryAfter > 0 {
		body.RetryAfterMs = int64(retryAfter / time.Millisecond)
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	out, _ := json.Marshal(body)
	w.Write(append(out, '\n'))
}

// StatusFor maps errors to HTTP statuses: a typed error's own, else by
// the error's kind.
func StatusFor(err error) int {
	if te, ok := resilience.AsError(err); ok {
		return te.Status
	}
	switch {
	case errors.Is(err, ErrBadRequest) || errors.Is(err, ErrUnknownProtocol):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) noteCancel(endpoint string, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.canceled.Add(endpointLabel(endpoint), 1)
	}
}

// deadlineRemaining extracts the request's remaining deadline budget.
func deadlineRemaining(ctx context.Context) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(dl), true
}

// admit runs the admission decision for one cache-missing request:
// requests that would coalesce onto an in-flight computation are always
// admitted (they add no work to the pool); everything else is checked
// against the queue bound and deadline feasibility. A non-nil error has
// already been counted in the shed metric and is ready for WriteError.
func (s *Server) admit(ctx context.Context, endpoint, key string) error {
	if s.flight.joinable(key) {
		return nil
	}
	queued, _ := s.flight.Depth()
	remaining, hasDeadline := deadlineRemaining(ctx)
	retryAfter, err := s.admission.Admit(queued, remaining, hasDeadline)
	if err == nil {
		return nil
	}
	reason := "queue_full"
	if errors.Is(err, resilience.ErrDeadlineInfeasible) {
		reason = "deadline"
	}
	s.shed.Add(labels("endpoint", endpoint, "reason", reason), 1)
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("shed", reason)
	}
	te, _ := resilience.AsError(err)
	return te.WithRetryAfter(retryAfter)
}

// decodeFrom parses the first JSON value in rd into v, refusing unknown
// fields; what follows the value is ignored.
func decodeFrom(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// Header values the handlers share across requests. A handler assigns
// one of these slices to its response header in place of Header.Set,
// which allocates a slice per call. Nothing may write through them: each
// has len == cap, so a later Header.Add appends into a new array, and
// Header.Set replaces the slice rather than writing into it.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheCoalesced  = []string{"coalesced"}
	cachePeer       = []string{"peer"}
	cacheMiss       = []string{"miss"}
)

// writeHit serves a cached body.
func writeHit(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["X-Cache"] = cacheHit
	w.Write(body)
}

// serveCached runs the cache → coalesce → compute path shared by analyze,
// topology, and non-streaming sweep and writes the response body. compute
// must return the exact bytes to serve; they are cached under key. In
// cluster mode, a miss on a key some other member owns is first filled
// from that owner on r's route (canon is the canonical request,
// re-marshaled onto the wire); a failed fill falls back to computing
// locally. The X-Cache header tells the caller what happened: hit,
// coalesced, miss (computed here), or peer (fetched from the owning
// shard).
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, key string, canon any, compute func(context.Context) ([]byte, error)) {
	setDigestKey(r.Context(), key)
	lookup := trace.StartLeaf(r.Context(), "cache.lookup")
	body, cached := s.cache.Get(key)
	if cached {
		lookup.SetAttr("outcome", "hit")
	} else {
		lookup.SetAttr("outcome", "miss")
	}
	lookup.End()
	if cached {
		writeHit(w, body)
		return
	}
	// Load shedding happens here — after the cache, before the pool — so
	// a saturated server still answers every request it can answer for
	// free, and sheds only work that needs a worker. Peer-filled requests
	// pass admission too: a fill can always fall back to local compute,
	// so it must hold a reservation the fallback is allowed to spend.
	if err := s.admit(r.Context(), endpoint, key); err != nil {
		WriteError(w, StatusFor(err), err)
		return
	}
	owner := s.peerOwner(r, key)
	// The flight group's compute context derives from the server's base
	// context, not from this request (the computation must survive the
	// first caller hanging up while followers wait). Graft this request's
	// span onto it so the kernel span still lands in this trace — and in
	// the leader's trace only: coalesced followers never run fn, so their
	// traces record just the wait below.
	parent := trace.SpanFromContext(r.Context())
	viaCache, viaPeer := false, false
	body, shared, err := s.flight.do(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		// A caller can miss the cache just before an earlier leader's Put
		// and reach the flight group just after that leader finished.
		// Re-check, uncounted (this request already counted its miss), so
		// the key is not computed twice.
		if b, ok := s.cache.lookup(key); ok {
			viaCache = true
			return b, nil
		}
		// The peer fill runs inside the flight group on purpose: every
		// concurrent identical request on this process coalesces onto ONE
		// outbound fill, and the owner coalesces fills from different
		// members onto one computation — cluster-wide, an identical burst
		// costs exactly one kernel run.
		if owner != "" {
			if b, ok := s.fillFromPeer(ctx, parent, owner, r.URL.Path, endpoint, key, canon); ok {
				viaPeer = true
				return b, nil
			}
		}
		kctx, ksp := trace.Start(trace.ContextWithSpan(ctx, parent), "kernel")
		defer ksp.End()
		ksp.SetAttr("endpoint", endpoint)
		s.computes.Add(endpointLabel(endpoint), 1)
		b, err := compute(kctx)
		if err != nil {
			ksp.SetError(err)
			return nil, err
		}
		s.cache.Put(key, b)
		return b, nil
	})
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		sp.SetAttr("coalesced", shared)
	}
	if err != nil {
		s.noteCancel(endpoint, err)
		WriteError(w, StatusFor(err), err)
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	switch {
	case shared:
		h["X-Cache"] = cacheCoalesced
	case viaCache:
		h["X-Cache"] = cacheHit
	case viaPeer:
		h["X-Cache"] = cachePeer
	default:
		h["X-Cache"] = cacheMiss
	}
	w.Write(body)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("service: POST required"))
		return
	}
	req, buf, alias, ok := decodeCacheable[AnalyzeRequest](s, w, r, "analyze", true)
	defer ReleaseBody(buf)
	if !ok {
		return
	}
	canon, key, ok := prepare(s, w, r, req)
	if !ok {
		return
	}
	s.serveCached(w, r, "analyze", key, canon, func(ctx context.Context) ([]byte, error) {
		resp, err := analyzeCanonical(ctx, canon, key)
		if err != nil {
			return nil, err
		}
		for _, v := range resp.Verdicts {
			s.verdicts.Add(verdictLabel(v.Protocol, v.Schedulable), 1)
		}
		body, err := encodeTraced(ctx, resp)
		return body, resultOutOfRange(err)
	})
	s.cache.recordAlias(alias, key)
}

// resultOutOfRange maps a result with no JSON form to the typed 400: a
// value that overflowed to ±Inf (a response time past 1e308 s, say) was
// put there by the inputs' magnitudes. Other errors pass through.
func resultOutOfRange(err error) error {
	var inf *json.UnsupportedValueError
	if errors.As(err, &inf) {
		return fmt.Errorf("%w: analysis result out of range: %v", ErrBadRequest, inf)
	}
	return err
}

// handleTopology serves /v1/topology/analyze through the same
// canonicalize → cache → coalesce → compute path as /v1/analyze; a 1-node
// topology therefore reports exactly the verdict the direct endpoint
// would, cached under its own canonical key.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("service: POST required"))
		return
	}
	req, buf, alias, ok := decodeCacheable[TopologyRequest](s, w, r, "topology", true)
	defer ReleaseBody(buf)
	if !ok {
		return
	}
	canon, key, ok := prepare(s, w, r, req)
	if !ok {
		return
	}
	s.serveCached(w, r, "topology", key, canon, func(ctx context.Context) ([]byte, error) {
		resp, err := topologyCanonical(ctx, canon, key)
		if err != nil {
			return nil, err
		}
		for _, rv := range resp.Rings {
			s.verdicts.Add(verdictLabel(rv.Protocol, rv.Schedulable), 1)
		}
		body, err := encodeTraced(ctx, resp)
		return body, resultOutOfRange(err)
	})
	s.cache.recordAlias(alias, key)
}

// WantsSSE reports whether the client asked for a progress stream; the
// front door proxies exactly these raw.
func WantsSSE(r *http.Request) bool {
	return r.Header.Get("Accept") == "text/event-stream" || r.URL.Query().Get("stream") == "sse"
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("service: POST required"))
		return
	}
	sse := WantsSSE(r)
	req, buf, alias, ok := decodeCacheable[SweepRequest](s, w, r, "sweep", !sse)
	defer ReleaseBody(buf)
	if !ok {
		return
	}
	canon, key, ok := prepare(s, w, r, req)
	if !ok {
		return
	}
	if sse {
		s.streamSweep(w, r, canon, key)
		return
	}
	s.serveCached(w, r, "sweep", key, canon, func(ctx context.Context) ([]byte, error) {
		resp, err := s.sweep(ctx, canon, key, s.cfg.Workers, nil)
		if err != nil {
			return nil, err
		}
		body, err := encodeTraced(ctx, resp)
		return body, resultOutOfRange(err)
	})
	s.cache.recordAlias(alias, key)
}

// streamSweep serves one sweep as an SSE stream: progress frames while
// the Monte Carlo pools run, then a final "result" (or "error") frame.
// The job runs under the request context — closing the stream cancels the
// workers promptly — but still occupies a pool slot and still feeds the
// result cache, so a later identical request is a hit.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, canon SweepRequest, key string) {
	setDigestKey(r.Context(), key)
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, errors.New("service: streaming unsupported"))
		return
	}
	// Admission runs before the stream is committed, so a shed request is
	// a plain 503 with Retry-After — not a 200 stream that immediately
	// errors. A cached result is always served.
	cachedBody, cached := s.cache.Get(key)
	if !cached {
		if err := s.admit(r.Context(), "sweep", key); err != nil {
			WriteError(w, StatusFor(err), err)
			return
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.sseStream.Add(endpointLabel("sweep"), 1)

	sse := progress.NewSSE(w, flusher.Flush, s.cfg.SampleEvery)
	if cached {
		sse.Event("result", json.RawMessage(cachedBody))
		return
	}
	// The sweep runs inline on this handler goroutine — never in the
	// flight group — because its progress frames write through a
	// ResponseWriter that dies when this handler returns; a detached
	// worker would write into a reclaimed response. Closing the stream
	// cancels the Monte Carlo workers promptly.
	ctx, cancel := s.jobContext(r.Context())
	defer cancel()
	// Heartbeat while the stream waits for a slot or grinds through a
	// quiet stretch of the sweep: intermediaries with idle timeouts see
	// comment frames instead of silence.
	stopKeepAlive := sse.KeepAlive(ctx, s.cfg.SSEKeepAlive)
	defer stopKeepAlive()
	var body []byte
	err := s.runInline(ctx, "sweep", func(ctx context.Context) error {
		resp, err := s.sweep(ctx, canon, key, s.cfg.Workers, sse)
		if err == nil {
			body, err = Encode(resp)
		}
		return resultOutOfRange(err)
	})
	if err != nil {
		sse.Event("error", errorBody{Error: err.Error(), Code: string(codeForStatus(StatusFor(err)))})
		return
	}
	s.cache.Put(key, body)
	sse.Event("result", json.RawMessage(body))
}

// jobContext derives the context of a computation that runs inline on a
// handler goroutine rather than in the flight group: it ends with the
// request, with the server's base context (so Close reaps it) and with
// the job timeout.
func (s *Server) jobContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.baseCtx, cancel)
	if s.cfg.JobTimeout <= 0 {
		return ctx, func() { stop(); cancel() }
	}
	ctx, cancelTimeout := context.WithTimeout(ctx, s.cfg.JobTimeout)
	return ctx, func() { cancelTimeout(); stop(); cancel() }
}

// runInline runs one inline computation of endpoint under a job context,
// holding a pool slot throughout (inline and flight-group jobs share one
// budget), and counts it as the flight group counts its own. compute
// encodes its result too, as a flight-group job does.
func (s *Server) runInline(ctx context.Context, endpoint string, compute func(context.Context) error) error {
	if err := s.flight.acquire(ctx); err != nil {
		s.noteCancel(endpoint, err)
		return err
	}
	defer s.flight.release()
	s.computes.Add(endpointLabel(endpoint), 1)
	started := time.Now()
	if err := compute(ctx); err != nil {
		s.noteCancel(endpoint, err)
		return err
	}
	s.admission.Observe(time.Since(started))
	return nil
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		body, err := Encode(map[string][]ExperimentInfo{"experiments": ListExperiments()})
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case http.MethodPost:
		var req ExperimentsRequest
		if err := decodeBody(r, &req); err != nil {
			WriteError(w, StatusFor(err), err)
			return
		}
		// Experiment batches are not cached: they are operator-initiated
		// rarities, and their reports can be large. They still compete
		// for the shared computation budget — admission first, then a
		// pool slot held for the whole batch — so a burst of experiment
		// posts queues behind the regular traffic instead of stacking
		// N×Workers uncontrolled computations on the box. The batch runs
		// inline (its report streams nowhere, so coalescing buys
		// nothing).
		ctx, cancel := s.jobContext(r.Context())
		defer cancel()
		if err := s.admit(ctx, "experiments", ""); err != nil {
			WriteError(w, StatusFor(err), err)
			return
		}
		var body []byte
		err := s.runInline(ctx, "experiments", func(ctx context.Context) error {
			resp, err := RunExperiments(ctx, req, s.cfg.Workers, nil)
			if err == nil {
				body, err = Encode(resp) // a failure here is a 500
			}
			return err
		})
		if err != nil {
			WriteError(w, StatusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	default:
		WriteError(w, http.StatusMethodNotAllowed, errors.New("service: GET or POST required"))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.requests.Write(w)
	s.latency.Write(w)
	s.computes.Write(w)
	s.verdicts.Write(w)
	s.canceled.Write(w)
	s.sseStream.Write(w)
	s.stages.Write(w)
	s.shed.Write(w)
	s.ratelimited.Write(w)
	s.panics.Write(w)
	s.chaosInj.Write(w)
	s.ringEdits.Write(w)
	s.reprobeStreams.Write(w)
	s.slo.Write(w)
	s.exemplars.Write(w)
	if s.clust != nil {
		s.peerFill.Write(w)
	}
	buildInfo(w)
	gauges := []gaugeFunc{
		{Name: "ringschedd_cache_hits_total", Help: "Result cache hits.", Type: "counter", Fn: func() float64 { return float64(s.cache.Hits()) }},
		{Name: "ringschedd_cache_misses_total", Help: "Result cache misses.", Type: "counter", Fn: func() float64 { return float64(s.cache.Misses()) }},
		{Name: "ringschedd_cache_evictions_total", Help: "Result cache evictions.", Type: "counter", Fn: func() float64 { return float64(s.cache.Evictions()) }},
		{Name: "ringschedd_cache_bytes", Help: "Resident result cache size in bytes, request-body alias entries included.", Fn: func() float64 { return float64(s.cache.Bytes()) }},
		{Name: "ringschedd_cache_entries", Help: "Resident result cache entries, request-body alias entries included.", Fn: func() float64 { return float64(s.cache.Entries()) }},
		{Name: "ringschedd_coalesced_total", Help: "Callers that joined an in-flight identical computation.", Type: "counter", Fn: func() float64 { return float64(s.flight.coalesced.Load()) }},
		{Name: "ringschedd_abandoned_total", Help: "Computations cancelled because every caller left.", Type: "counter", Fn: func() float64 { return float64(s.flight.abandoned.Load()) }},
		{Name: "ringschedd_pool_queued", Help: "Jobs waiting for a worker slot.", Fn: func() float64 { q, _ := s.flight.Depth(); return float64(q) }},
		{Name: "ringschedd_pool_running", Help: "Jobs currently computing.", Fn: func() float64 { _, r := s.flight.Depth(); return float64(r) }},
		{Name: "ringschedd_http_in_flight", Help: "API requests currently being served.", Fn: func() float64 { return float64(s.InFlight()) }},
		{Name: "ringschedd_rings", Help: "Resident ring sessions.", Fn: func() float64 { return float64(s.rings.Len()) }},
		{Name: "ringschedd_request_log_total", Help: "Requests ever recorded by the flight recorder.", Type: "counter",
			Fn: func() float64 { return float64(s.recorder.Total()) }},
		{Name: "ringschedd_admission_service_seconds", Help: "EWMA of completed computation service times feeding the admission controller.",
			Fn: func() float64 { return s.admission.ServiceTime().Seconds() }},
		{Name: "ringschedd_admission_est_wait_seconds", Help: "Estimated queue wait a new arrival would see right now.",
			Fn: func() float64 { q, _ := s.flight.Depth(); return s.admission.EstimatedWait(q).Seconds() }},
		{Name: "ringschedd_ratelimit_clients", Help: "Resident per-client rate-limiter buckets.",
			Fn: func() float64 {
				if s.limiter == nil {
					return 0
				}
				return float64(s.limiter.Clients())
			}},
	}
	if s.clust != nil {
		gauges = append(gauges,
			gaugeFunc{Name: "ringschedd_cluster_members", Help: "Members of the consistent-hash cluster ring, this process included.",
				Fn: func() float64 { return float64(s.clust.ring.Size()) }})
	}
	for _, g := range gauges {
		g.Write(w)
	}
}
