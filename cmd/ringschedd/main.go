// Command ringschedd serves schedulability analysis over HTTP: the
// Theorem 4.1/5.1 verdicts (/v1/analyze), Figure 1-style breakdown sweeps
// with optional server-sent-event progress (/v1/sweep), the reproduction
// experiments (/v1/experiments), plus /healthz and Prometheus-text
// /metrics.
//
// Repeated and concurrent identical requests are served from a sharded
// LRU result cache and a coalescing worker pool: the same question is
// computed once, however many clients ask. SIGINT/SIGTERM drains
// gracefully — new requests get 503 while in-flight work finishes.
//
// With -peers and -advertise, N ringschedd processes form a sharded
// cluster over a consistent-hash ring: a cache miss on a key another
// member owns is filled from that owner on its own public route (bounded
// by -peer-fill-timeout, falling back to local compute), so an identical
// burst anywhere in the cluster costs one computation cluster-wide. Put
// cmd/ringsched-lb in front to route clients by shard ownership.
//
// Every /v1/* response carries an X-Ringsched-Trace header; feeding it to
// /debug/traces?trace=<id> returns that request's span tree (handler →
// canonicalize → cache → kernel → encode). Spans also drive the
// ringschedd_stage_seconds histograms on /metrics, and net/http/pprof is
// mounted under /debug/pprof/.
//
// Usage:
//
//	ringschedd                                # serve on :8080
//	ringschedd -addr 127.0.0.1:9000 -workers 8 -cache-bytes 33554432
//	ringschedd -addr :8081 -advertise 10.0.0.1:8081 -peers 10.0.0.2:8081,10.0.0.3:8081
//	ringschedd -log-format json -log-level debug -trace-out spans.jsonl
//	curl -s localhost:8080/healthz
//	curl -s -XPOST -d '{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":4096}]}' \
//	    localhost:8080/v1/analyze
//	curl -s "localhost:8080/debug/traces?trace=$TRACE_ID"
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"ringsched/internal/cli"
	"ringsched/internal/resilience"
	"ringsched/internal/service"
)

func main() {
	cli.Main("ringschedd", run)
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringschedd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		cacheBytes = fs.Int64("cache-bytes", 64<<20, "result cache byte budget")
		workers    = fs.Int("workers", 0, "concurrent computations (0 = all cores)")
		jobTimeout = fs.Duration("job-timeout", 5*time.Minute, "per-computation deadline (negative = none)")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
		spans      = fs.Int("trace-spans", 4096, "finished spans retained for /debug/traces")
		queueDepth = fs.Int("queue-depth", 0,
			"max computations waiting for a worker before arrivals are shed with 503 (0 = 4x workers, negative = unbounded)")
		clientRPS = fs.Float64("client-rps", 0,
			"per-client rate limit in requests/second, keyed by peer host qualified by X-Ringsched-Client (0 = off)")
		clientBurst = fs.Float64("client-burst", 0, "per-client burst allowance (0 = 2x client-rps)")
		maxClients  = fs.Int("max-clients", 0, "resident rate-limiter buckets (0 = 1024)")
		chaosSpec   = fs.String("chaos", "",
			`deterministic fault injection, e.g. "latency:p=0.2,ms=30+error:p=0.1,code=503+reset:p=0.02+seed:n=7" (empty = off)`)
		sseKeepAlive = fs.Duration("sse-keepalive", 15*time.Second,
			"idle heartbeat interval for progress streams (negative = off)")
		peers = fs.String("peers", "",
			"comma-separated peer advertise addresses (host:port,...) forming a sharded cluster; requires -advertise")
		advertise = fs.String("advertise", "",
			"this process's own cluster address (host:port) as peers reach it")
		peerFillTimeout = fs.Duration("peer-fill-timeout", 2*time.Second,
			"deadline for one peer cache-fill round trip before computing locally")
		peerVNodes = fs.Int("peer-vnodes", 0,
			"consistent-hash virtual nodes per member (0 = default 128; all members must agree)")
		maxRings = fs.Int("max-rings", 0,
			"resident /v1/rings sessions (0 = default 4096)")
		maxRingStreams = fs.Int("max-ring-streams", 0,
			"streams per /v1/rings session (0 = default 4096)")
		requestLog = fs.Int("request-log", 0,
			"request digests retained for /debug/requests (0 = default 4096)")
		slowMs = fs.Float64("slow-ms", 0,
			"latency above which a request counts as slow in ringschedd_slo_requests_total and a bare /debug/requests?slow (0 = default 1000)")
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

	chaos, err := resilience.ParseChaos(*chaosSpec)
	if err != nil {
		return err
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 && *advertise == "" {
		return errors.New("ringschedd: -peers requires -advertise (this process's own cluster address)")
	}
	if chaos.Enabled() {
		logger.LogAttrs(ctx, slog.LevelWarn, "chaos injection enabled",
			slog.String("spec", chaos.Spec()))
	}

	srv := service.New(service.Config{
		CacheBytes:      *cacheBytes,
		Workers:         *workers,
		JobTimeout:      *jobTimeout,
		Logger:          logger,
		TraceSpans:      *spans,
		TraceSink:       obs.Sink(),
		QueueDepth:      *queueDepth,
		ClientRPS:       *clientRPS,
		ClientBurst:     *clientBurst,
		MaxClients:      *maxClients,
		Chaos:           chaos,
		SSEKeepAlive:    *sseKeepAlive,
		Advertise:       *advertise,
		Peers:           peerList,
		PeerFillTimeout: *peerFillTimeout,
		PeerVNodes:      *peerVNodes,
		MaxRings:        *maxRings,
		MaxRingStreams:  *maxRingStreams,
		RequestLog:      *requestLog,
		SlowThreshold:   time.Duration(*slowMs * float64(time.Millisecond)),
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", *workers),
		slog.Int64("cacheBytes", *cacheBytes))

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop advertising health, reject new API work,
	// let in-flight requests finish within the drain budget, then cancel
	// whatever is left (long SSE streams included) and force-close.
	logger.LogAttrs(ctx, slog.LevelInfo, "draining",
		slog.Duration("budget", *drain),
		slog.Int64("inFlight", srv.InFlight()))
	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := hs.Shutdown(drainCtx)
	srv.Close()
	if shutdownErr != nil {
		hs.Close()
		if !errors.Is(shutdownErr, context.DeadlineExceeded) {
			return shutdownErr
		}
		logger.LogAttrs(ctx, slog.LevelWarn, "drain budget exceeded, forced close")
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "stopped")
	return nil
}
