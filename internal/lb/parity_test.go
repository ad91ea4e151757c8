package lb

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ringsched/internal/service"
)

// startReplica serves one in-process ringschedd on a loopback listener
// and returns its address.
func startReplica(tb testing.TB) string {
	tb.Helper()
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// frontDoor serves a Balancer over the one backend on its own loopback
// listener, health-checked once, and returns its base URL.
func frontDoor(tb testing.TB, backend string) string {
	tb.Helper()
	l, err := New(Config{Backends: []string{backend}, Retries: -1})
	if err != nil {
		tb.Fatal(err)
	}
	l.CheckOnce(context.Background())
	ts := httptest.NewServer(l.Handler())
	tb.Cleanup(ts.Close)
	return ts.URL
}

// answer is what parity compares of one response.
type answer struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

func send(tb testing.TB, method, url string, body []byte, deadline string) answer {
	tb.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline != "" {
		req.Header.Set(service.DeadlineHeader, deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), b}
}

// requireParity sends one request straight to the replica and then
// through the front door, and requires the two answers to agree on
// status, Content-Type, Retry-After and body bytes, neither a 5xx.
func requireParity(tb testing.TB, replica, front, method, path string, body []byte, deadline string) answer {
	tb.Helper()
	direct := send(tb, method, "http://"+replica+path, body, deadline)
	via := send(tb, method, front+path, body, deadline)
	if direct.status >= 500 || via.status >= 500 {
		tb.Fatalf("%s %s (deadline %q): a 5xx: direct %d %.300s, via lb %d %.300s",
			method, path, deadline, direct.status, direct.body, via.status, via.body)
	}
	if direct.status != via.status || direct.contentType != via.contentType ||
		direct.retryAfter != via.retryAfter || !bytes.Equal(direct.body, via.body) {
		tb.Fatalf("%s %s (deadline %q): the doors disagree:\ndirect: %d %q Retry-After %q %.300s\nvia lb: %d %q Retry-After %q %.300s",
			method, path, deadline,
			direct.status, direct.contentType, direct.retryAfter, direct.body,
			via.status, via.contentType, via.retryAfter, via.body)
	}
	return direct
}

const (
	parityAnalyze  = `{"bandwidthMbps":100,"streams":[{"name":"gyro","periodMs":10,"lengthBits":4096},{"name":"telemetry","periodMs":50,"lengthBits":65536}]}`
	parityTopology = `{"topology":"ring:name=a,proto=8025mod,bw=16e6 + ring:name=b,proto=fddi,bw=100e6 + bridge:a=a,b=b,latency=100us + flow:name=cross,src=a,dst=b,period=100ms,bits=4096"}`
)

// TestFrontDoorParity holds the front door to the replica's bytes: a
// request the lb forwards, one a backend refuses and one the lb refuses
// itself answer the same status, Content-Type, Retry-After and body
// whether sent straight to the replica or through the lb.
func TestFrontDoorParity(t *testing.T) {
	replica := startReplica(t)
	front := frontDoor(t, replica)
	pastCap := strings.Repeat(" ", service.MaxBodyBytes+1-len(parityAnalyze)) + parityAnalyze
	for _, tc := range []struct {
		name, method, path, body, deadline string
		status                             int
	}{
		{"valid analyze body", http.MethodPost, "/v1/analyze", parityAnalyze, "", http.StatusOK},
		{"valid topology body", http.MethodPost, "/v1/topology/analyze", parityTopology, "", http.StatusOK},
		{"bad value", http.MethodPost, "/v1/analyze", `{"bandwidthMbps":-5,"streams":[]}`, "", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/analyze",
			`{"bandwidthMbps":100,"bogus":1,"streams":[{"name":"s","periodMs":10,"lengthBits":4096}]}`, "", http.StatusBadRequest},
		{"body one byte past 8 MiB", http.MethodPost, "/v1/analyze", pastCap, "", http.StatusRequestEntityTooLarge},
		{"malformed deadline header", http.MethodPost, "/v1/analyze", parityAnalyze, "abc", http.StatusBadRequest},
		{"zero deadline header", http.MethodPost, "/v1/analyze", parityAnalyze, "0", http.StatusBadRequest},
		{"negative deadline header", http.MethodPost, "/v1/analyze", parityAnalyze, "-1", http.StatusBadRequest},
		{"malformed deadline header on a stream", http.MethodPost, "/v1/sweep?stream=sse",
			`{"bandwidthsMbps":[10],"streams":4,"samples":2,"seed":7}`, "abc", http.StatusBadRequest},
		{"GET on a POST route", http.MethodGet, "/v1/analyze", "", "", http.StatusMethodNotAllowed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := requireParity(t, replica, front, tc.method, tc.path, []byte(tc.body), tc.deadline)
			if got.status != tc.status {
				t.Errorf("status %d, want %d: %.300s", got.status, tc.status, got.body)
			}
		})
	}
}

// parityDeadlines are the deadline headers FuzzLBParity draws from:
// absent, malformed, zero, negative, and two large positive values, the
// second past time.Duration's range in nanoseconds.
var parityDeadlines = []string{"", "abc", "0", "-1", "86400000", "9223372036854775807"}

// FuzzLBParity puts the front door before one in-process replica and
// requires every /v1/analyze and /v1/topology/analyze body, under each
// deadline header, to get the same status, Content-Type, Retry-After and
// body bytes straight and through the lb, and neither door to answer a
// 5xx.
func FuzzLBParity(f *testing.F) {
	replica := startReplica(f)
	front := frontDoor(f, replica)
	for i := range parityDeadlines {
		f.Add(uint8(0), []byte(parityAnalyze), uint8(i))
	}
	f.Add(uint8(1), []byte(parityTopology), uint8(0))
	f.Add(uint8(1), []byte(`{"topology":"ring:name="}`), uint8(4))
	f.Add(uint8(0), []byte(`{"bandwidthMbps":-5,"streams":[]}`), uint8(0))
	f.Add(uint8(0), []byte(`{"bandwidthMbps":100,"bogus":1}`), uint8(5))
	f.Add(uint8(0), []byte(`{`), uint8(0))
	f.Add(uint8(1), []byte(``), uint8(0))
	f.Fuzz(func(t *testing.T, route uint8, body []byte, deadline uint8) {
		path := [...]string{"/v1/analyze", "/v1/topology/analyze"}[route%2]
		dl := parityDeadlines[int(deadline)%len(parityDeadlines)]
		requireParity(t, replica, front, http.MethodPost, path, body, dl)
	})
}
