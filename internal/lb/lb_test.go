package lb

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// deadBackend returns a loopback address nothing listens on.
func deadBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// logSignal is a slog handler that passes each record's message to ch,
// dropping it when ch is full.
type logSignal chan string

func (logSignal) Enabled(context.Context, slog.Level) bool { return true }
func (s logSignal) Handle(_ context.Context, r slog.Record) error {
	select {
	case s <- r.Message:
	default:
	}
	return nil
}
func (s logSignal) WithAttrs([]slog.Attr) slog.Handler { return s }
func (s logSignal) WithGroup(string) slog.Handler      { return s }

func healthz(l *Balancer) int {
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return rr.Code
}

// TestRunOwnedByCaller: New starts no goroutine, the health-check loop
// probes only while the caller runs it, and Run returns promptly once
// its context ends.
func TestRunOwnedByCaller(t *testing.T) {
	logged := make(logSignal, 1)
	before := runtime.NumGoroutine()
	l, err := New(Config{
		Backends:      []string{deadBackend(t)},
		CheckInterval: 5 * time.Millisecond,
		Fall:          1,
		Logger:        slog.New(logged),
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
	if code := healthz(l); code != http.StatusOK {
		t.Fatalf("healthz = %d before any probe, want the optimistic 200", code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Run(ctx)
	}()
	// The loop's first probe fails the dead backend out (fall 1).
	select {
	case msg := <-logged:
		if msg != "backend health changed" {
			t.Fatalf("logged %q, want a health change", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never probed the dead backend")
	}
	if code := healthz(l); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with the only backend failed out, want 503", code)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not return within 1s of its context ending")
	}
}
