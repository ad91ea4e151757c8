// Command ringsched-lb is the cluster front door for a sharded ringschedd
// deployment: it health-checks the member set, routes each cacheable API
// request to the replica that owns its canonical key on the cluster's
// consistent-hash ring, and fails over to any healthy replica when the
// owner is down or misbehaving. The front door itself is internal/lb;
// this command parses its flags, runs the first health check before it
// listens, and owns the health-check loop and the drain.
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
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"ringsched/internal/cli"
	"ringsched/internal/lb"
)

func main() {
	cli.Main("ringsched-lb", run)
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
	l, err := lb.New(lb.Config{
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

	// Health checks outlive ctx, so backends stay tracked while draining;
	// run returns only once the loop has stopped.
	checkCtx, stopChecks := context.WithCancel(context.Background())
	l.CheckOnce(checkCtx)
	checks := make(chan struct{})
	go func() { l.Run(checkCtx); close(checks) }()
	defer func() { stopChecks(); <-checks }()

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
