package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ringsched/internal/cluster"
	"ringsched/internal/lb"
	"ringsched/internal/service"
)

// startBackends brings up n real ringschedd servers on loopback and
// returns their addresses plus a cleanup-registered shutdown per server.
func startBackends(t *testing.T, n int) (addrs []string, stop []func()) {
	t.Helper()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		addrs = append(addrs, ln.Addr().String())
		stopOne := func() {
			hs.Close()
			srv.Close()
		}
		stop = append(stop, stopOne)
		t.Cleanup(stopOne)
	}
	return addrs, stop
}

// testLB is the front door under test beside the placement its backends
// compute: the canonical keys and the hash ring are built from the same
// backends apart from the lb, so routing is checked against them.
type testLB struct {
	*lb.Balancer
	ring *cluster.Ring
	keys *service.Cache
}

func newTestLB(t *testing.T, backends []string) *testLB {
	t.Helper()
	l, err := lb.New(lb.Config{
		Backends:     backends,
		Rise:         1,
		Fall:         1,
		CheckTimeout: 500 * time.Millisecond,
		Retries:      -1, // fail over between backends instead of retrying one
		Deadline:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.CheckOnce(t.Context())
	return &testLB{Balancer: l, ring: cluster.New(0, backends...), keys: service.NewCache(4 << 20)}
}

// shardKey is the canonical key a backend gives body.
func (l *testLB) shardKey(endpoint string, body []byte) (string, bool) {
	return l.keys.KeyOf(endpoint, body)
}

// analyzeBodyOwnedBy scans bandwidths until the canonical key's owner on
// the lb's ring is the wanted backend, so routing tests are deterministic.
func analyzeBodyOwnedBy(t *testing.T, l *testLB, owner string) string {
	t.Helper()
	for bw := 1; bw < 4096; bw++ {
		body := fmt.Sprintf(`{"bandwidthMbps":%d,"streams":[{"name":"s","periodMs":10,"lengthBits":4096}]}`, bw)
		if key, ok := l.shardKey("analyze", []byte(body)); ok && l.ring.Owner(key) == owner {
			return body
		}
	}
	t.Fatal("no analyze request owned by", owner)
	return ""
}

func postVia(t *testing.T, l *testLB, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, req)
	return rr
}

func TestLBRoutesToShardOwner(t *testing.T) {
	addrs, _ := startBackends(t, 3)
	l := newTestLB(t, addrs)

	for _, owner := range addrs {
		body := analyzeBodyOwnedBy(t, l, owner)
		rr := postVia(t, l, "/v1/analyze", body, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rr.Code, rr.Body)
		}
		if got := rr.Header().Get("X-Ringsched-Backend"); got != owner {
			t.Errorf("request owned by %s served by %s", owner, got)
		}
		// The same request again hits the owner's now-warm cache.
		rr = postVia(t, l, "/v1/analyze", body, nil)
		if xc := rr.Header().Get("X-Cache"); xc != "hit" {
			t.Errorf("second identical request X-Cache = %q, want hit", xc)
		}
	}
}

func TestLBFailsOverWhenOwnerDown(t *testing.T) {
	addrs, stop := startBackends(t, 2)
	l := newTestLB(t, addrs)

	dead := addrs[0]
	body := analyzeBodyOwnedBy(t, l, dead)
	stop[0]()
	l.CheckOnce(t.Context()) // fall=1: one failed probe marks it down

	rr := postVia(t, l, "/v1/analyze", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d with one backend down, body %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Ringsched-Backend"); got != addrs[1] {
		t.Errorf("served by %q, want surviving backend %q", got, addrs[1])
	}
	metrics := l.metricsSnapshot(t)
	if !strings.Contains(metrics, `ringschedlb_backend_healthy{backend="`+dead+`"} 0`) {
		t.Error("dead backend not reported unhealthy in /metrics")
	}
	if !strings.Contains(metrics, `ringschedlb_routed_total{route="fallback"}`) {
		t.Error("fallback routing decision not counted")
	}
}

// TestLBFailsOverOnServerError exercises failover on a live-but-erroring
// owner: transport-level failures to an unroutable port fall through to
// the next candidate even before the health checker notices.
func TestLBFailsOverOnServerError(t *testing.T) {
	addrs, stop := startBackends(t, 2)
	l := newTestLB(t, addrs)

	dead := addrs[0]
	body := analyzeBodyOwnedBy(t, l, dead)
	stop[0]() // port closed, but checker has NOT been re-run: still "healthy"

	rr := postVia(t, l, "/v1/analyze", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want in-request failover to survivor; body %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Ringsched-Backend"); got != addrs[1] {
		t.Errorf("served by %q, want survivor %q", got, addrs[1])
	}
}

func TestLBBadRequestVerbatimNoFailover(t *testing.T) {
	addrs, _ := startBackends(t, 2)
	l := newTestLB(t, addrs)

	rr := postVia(t, l, "/v1/analyze", `{"bandwidthMbps":-5,"streams":[]}`, nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want the backend's 400 passed through; body %s", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), `"code"`) {
		t.Errorf("typed error body lost in proxying: %s", rr.Body)
	}
}

// TestLBRefusesOversizedBody: a body one byte past service.MaxBodyBytes
// gets a typed 413 from the lb, with no Retry-After, and reaches no
// backend; a body of exactly MaxBodyBytes is still forwarded and served.
func TestLBRefusesOversizedBody(t *testing.T) {
	addrs, _ := startBackends(t, 1)
	l := newTestLB(t, addrs)
	const body = `{"bandwidthMbps":80,"streams":[{"name":"s","periodMs":10,"lengthBits":4096}]}`
	padded := func(n int) string { return strings.Repeat(" ", n-len(body)) + body }

	rr := postVia(t, l, "/v1/analyze", padded(service.MaxBodyBytes+1), nil)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d for a body past the cap, want 413; body %.200s", rr.Code, rr.Body)
	}
	var e struct{ Error, Code string }
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Code != "bad_request" || e.Error == "" {
		t.Errorf("413 body %q (%v): want a typed bad_request error", rr.Body, err)
	}
	if ra := rr.Header().Get("Retry-After"); ra != "" {
		t.Errorf("413 carries Retry-After %q, inviting a retry", ra)
	}
	if m := l.metricsSnapshot(t); strings.Contains(m, "ringschedlb_requests_total{") {
		t.Errorf("an oversized body reached a backend:\n%s", m)
	}

	rr = postVia(t, l, "/v1/analyze", padded(service.MaxBodyBytes), nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d for a body of exactly the cap, want 200; body %.200s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("X-Ringsched-Backend"); got != addrs[0] {
		t.Errorf("served by %q, want %q", got, addrs[0])
	}
}

func TestLBTraceAdoptedAndEchoed(t *testing.T) {
	addrs, _ := startBackends(t, 1)
	l := newTestLB(t, addrs)

	const traceID = "00112233445566778899aabbccddeeff"
	body := `{"bandwidthMbps":80,"streams":[{"name":"s","periodMs":10,"lengthBits":4096}]}`
	rr := postVia(t, l, "/v1/analyze", body, map[string]string{"X-Ringsched-Trace": traceID})
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if got := rr.Header().Get("X-Ringsched-Trace"); got != traceID {
		t.Errorf("lb trace header = %q, want adopted %q", got, traceID)
	}
	// The backend must have seen the same trace: its span ring indexes it.
	resp, err := http.Get("http://" + addrs[0] + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dump, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(dump), traceID) {
		t.Errorf("backend has no spans for trace %s: %s", traceID, dump)
	}
}

func TestLBHealthzReflectsBackends(t *testing.T) {
	addrs, stop := startBackends(t, 1)
	l := newTestLB(t, addrs)

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz = %d with healthy backend", rr.Code)
	}

	stop[0]()
	l.CheckOnce(t.Context())
	rr = httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d with all backends down, want 503", rr.Code)
	}
}

func TestLBStreamsSSE(t *testing.T) {
	addrs, _ := startBackends(t, 1)
	l := newTestLB(t, addrs)

	// Drive the real mux over a live listener: SSE needs a streaming
	// response writer, which httptest.NewRecorder can't interrupt.
	ts := httptest.NewServer(l.Handler())
	defer ts.Close()

	body := `{"bandwidthsMbps":[10,20,40],"streams":8,"samples":4,"seed":7}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want SSE", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawEvent bool
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event:") {
			sawEvent = true
			break
		}
	}
	if !sawEvent {
		t.Error("no SSE events proxied through the lb")
	}
}

func TestLBClientIdentityPassthrough(t *testing.T) {
	var seen string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		seen = r.Header.Get("X-Ringsched-Client")
		w.Write([]byte(`{}`))
	}))
	defer backend.Close()

	l := newTestLB(t, []string{strings.TrimPrefix(backend.URL, "http://")})
	rr := postVia(t, l, "/v1/experiments", `{}`, map[string]string{"X-Ringsched-Client": "tenant-9"})
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	if seen != "tenant-9" {
		t.Errorf("backend saw client %q, want tenant-9 forwarded by lb", seen)
	}
}

// metricsSnapshot scrapes the lb's own /metrics handler.
func (l *testLB) metricsSnapshot(t *testing.T) string {
	t.Helper()
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rr.Body.String()
}
