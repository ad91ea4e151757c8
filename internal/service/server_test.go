package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const analyzeBody = `{
  "bandwidthMbps": 100,
  "streams": [
    {"name": "gyro", "periodMs": 10, "lengthBits": 4096},
    {"name": "telemetry", "periodMs": 50, "lengthBits": 65536}
  ]
}`

// smallSweepBody finishes in milliseconds; used where the result matters.
const smallSweepBody = `{"bandwidthsMbps": [10, 100], "streams": 5, "samples": 4, "seed": 7}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// metricValue scrapes /metrics and returns the first sample whose name
// (with any label set) matches pattern, or 0 if absent.
func metricValue(t *testing.T, base, pattern string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	re := regexp.MustCompile(pattern)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !re.MatchString(line) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse metric line %q: %v", line, err)
		}
		return v
	}
	return 0
}

func TestRepeatedAnalyzeIsBitIdenticalCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	first, body1 := post(t, ts.URL+"/v1/analyze", analyzeBody)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first analyze: %d %s", first.StatusCode, body1)
	}
	if xc := first.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("first X-Cache = %q, want miss", xc)
	}

	// Same question, different formatting and stream order: still a hit.
	permuted := `{"bandwidthMbps":1e2,"streams":[` +
		`{"name":"telemetry","periodMs":50.0,"lengthBits":65536},` +
		`{"name":"gyro","periodMs":10,"lengthBits":4.096e3}]}`
	second, body2 := post(t, ts.URL+"/v1/analyze", permuted)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: %d %s", second.StatusCode, body2)
	}
	if xc := second.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("second X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache hit body differs from original:\n%s\nvs\n%s", body1, body2)
	}

	if hits := metricValue(t, ts.URL, `^ringschedd_cache_hits_total `); hits < 1 {
		t.Errorf("ringschedd_cache_hits_total = %g, want >= 1", hits)
	}
	if n := metricValue(t, ts.URL, `^ringschedd_computations_total\{endpoint="analyze"\}`); n != 1 {
		t.Errorf("computations_total{analyze} = %g, want 1", n)
	}

	var parsed AnalyzeResponse
	if err := json.Unmarshal(body1, &parsed); err != nil {
		t.Fatalf("response not an AnalyzeResponse: %v", err)
	}
	if parsed.CacheKey == "" || len(parsed.Verdicts) != 3 {
		t.Errorf("unexpected response: %+v", parsed)
	}
}

func TestConcurrentIdenticalRequestsComputeOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	const callers = 12
	var wg sync.WaitGroup
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/analyze", analyzeBody)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: %d %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	// Whether a given caller hit the cache or coalesced onto the flight
	// depends on timing; the invariant is exactly one computation and
	// identical bytes everywhere.
	if n := metricValue(t, ts.URL, `^ringschedd_computations_total\{endpoint="analyze"\}`); n != 1 {
		t.Errorf("computations_total{analyze} = %g, want 1 for %d concurrent callers", n, callers)
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("caller %d body differs from caller 0", i)
		}
	}
}

func TestSweepEndpointAndCaching(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	first, body1 := post(t, ts.URL+"/v1/sweep", smallSweepBody)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", first.StatusCode, body1)
	}
	var parsed SweepResponse
	if err := json.Unmarshal(body1, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Series) != 3 || len(parsed.Series[0].Points) != 2 {
		t.Fatalf("unexpected sweep shape: %d series", len(parsed.Series))
	}
	if parsed.Request.Samples != 4 || parsed.Request.MeanPeriodMs != 100 {
		t.Errorf("echoed request missing resolved defaults: %+v", parsed.Request)
	}

	second, body2 := post(t, ts.URL+"/v1/sweep", smallSweepBody)
	if xc := second.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("repeat sweep X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("repeat sweep body differs")
	}
}

func TestSSESweepStreamsProgressAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{SampleEvery: 1})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(smallSweepBody))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	var resultData string
	for _, frame := range strings.Split(string(raw), "\n\n") {
		var kind string
		for _, line := range strings.Split(frame, "\n") {
			if k, ok := strings.CutPrefix(line, "event: "); ok {
				kind = k
			}
			if d, ok := strings.CutPrefix(line, "data: "); ok && kind == "result" {
				resultData = d
			}
		}
		if kind != "" {
			events[kind]++
		}
	}
	if events["samples"] == 0 || events["point"] == 0 {
		t.Errorf("missing progress frames: %v", events)
	}
	if events["result"] != 1 {
		t.Fatalf("result frames = %d, want 1 (%v)", events["result"], events)
	}
	var parsed SweepResponse
	if err := json.Unmarshal([]byte(resultData), &parsed); err != nil {
		t.Fatalf("result frame not a SweepResponse: %v", err)
	}

	// The streamed computation fed the cache: a plain repeat is a hit.
	repeat, _ := post(t, ts.URL+"/v1/sweep", smallSweepBody)
	if xc := repeat.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("post-stream sweep X-Cache = %q, want hit", xc)
	}
}

func TestCancellingInFlightSweepStopsWorkersPromptly(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SampleEvery: 1})

	// A sweep big enough to run for many seconds if not cancelled.
	big := `{"streams": 60, "samples": 5000, "seed": 3}`
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep?stream=sse", strings.NewReader(big))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait until the Monte Carlo pool is actually computing, then hang up.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("no progress frame arrived: %v", err)
	}
	if _, running := s.flight.Depth(); running == 0 {
		t.Fatal("progress frame arrived but nothing is running")
	}
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, running := s.flight.Depth()
		if running == 0 && s.InFlight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers still running %v after client cancel", 5*time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := metricValue(t, ts.URL, `^ringschedd_canceled_total\{endpoint="sweep"\}`); n != 1 {
		t.Errorf("canceled_total{sweep} = %g, want 1", n)
	}
	if n := metricValue(t, ts.URL, `^ringschedd_sse_streams_total\{endpoint="sweep"\}`); n != 1 {
		t.Errorf("sse_streams_total{sweep} = %g, want 1", n)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	apiResp, body := post(t, ts.URL+"/v1/analyze", analyzeBody)
	if apiResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining analyze = %d (%s), want 503", apiResp.StatusCode, body)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments list = %d %s", resp.StatusCode, body)
	}
	var list map[string][]ExperimentInfo
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list["experiments"]) == 0 {
		t.Fatal("no experiments listed")
	}

	bad, badBody := post(t, ts.URL+"/v1/experiments", `{"ids": ["NO-SUCH-EXPERIMENT"]}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment = %d, want 400", bad.StatusCode)
	}
	if !strings.Contains(string(badBody), list["experiments"][0].ID) {
		t.Errorf("unknown-experiment error should list valid IDs: %s", badBody)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"analyze GET", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"sweep GET", http.MethodGet, "/v1/sweep", "", http.StatusMethodNotAllowed},
		{"experiments PUT", http.MethodPut, "/v1/experiments", "", http.StatusMethodNotAllowed},
		{"analyze bad json", http.MethodPost, "/v1/analyze", "{", http.StatusBadRequest},
		{"analyze unknown field", http.MethodPost, "/v1/analyze", `{"bogus": 1}`, http.StatusBadRequest},
		{"analyze no streams", http.MethodPost, "/v1/analyze", `{"bandwidthMbps": 100, "streams": []}`, http.StatusBadRequest},
		{"analyze bad protocol", http.MethodPost, "/v1/analyze",
			`{"bandwidthMbps": 100, "protocols": ["token-bus"], "streams": [{"periodMs": 10, "lengthBits": 64}]}`,
			http.StatusBadRequest},
		{"analyze bad scenario", http.MethodPost, "/v1/analyze",
			`{"bandwidthMbps": 100, "scenario": "bogus", "streams": [{"periodMs": 10, "lengthBits": 64}]}`,
			http.StatusBadRequest},
		{"sweep bad grid", http.MethodPost, "/v1/sweep", `{"bandwidthsMbps": [-5]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
}

// TestUnknownFaultKeysAnswerOneBody posts a fault model whose clause holds
// three unknown keys: every post is refused with the same 400 body, which
// names the least of them.
func TestUnknownFaultKeysAnswerOneBody(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	const body = `{"bandwidthMbps": 100, "faultModel": "loss:zz=1,aa=2,mm=3", "streams": [{"periodMs": 10, "lengthBits": 64}]}`
	answers := map[string]int{}
	for i := 0; i < 50; i++ {
		w := serve(s.Handler(), "/v1/analyze", body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("post %d: %d %s, want 400", i, w.Code, w.Body)
		}
		answers[w.Body.String()]++
	}
	if len(answers) != 1 {
		t.Fatalf("50 posts answered %d different bodies: %v", len(answers), answers)
	}
	for answer := range answers {
		if !strings.Contains(answer, `unknown loss key \"aa\"`) {
			t.Errorf("body %s should name key aa", answer)
		}
	}
}

func TestFaultScenarioAnalyzeReportsDegradedVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"bandwidthMbps": 100, "scenario": "lossy-token", "streams": [{"periodMs": 10, "lengthBits": 4096}]}`
	resp, raw := post(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, raw)
	}
	var parsed AnalyzeResponse
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.FaultModel == "" {
		t.Error("response should echo the canonical fault spec")
	}
	for _, v := range parsed.Verdicts {
		if v.Degraded == nil {
			t.Errorf("%s: no degraded verdict", v.Protocol)
			continue
		}
		if v.Degraded.Availability <= 0 || v.Degraded.Availability > 1 {
			t.Errorf("%s: availability %g out of range", v.Protocol, v.Degraded.Availability)
		}
	}
	if n := metricValue(t, ts.URL, `^ringschedd_verdicts_total\{protocol="fddi"`); n != 1 {
		t.Errorf("verdicts_total{fddi} = %g, want 1", n)
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", analyzeBody)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"# TYPE ringschedd_requests_total counter",
		"# TYPE ringschedd_request_seconds histogram",
		"# TYPE ringschedd_cache_hits_total counter",
		"# TYPE ringschedd_pool_running gauge",
		`ringschedd_requests_total{code="200",endpoint="analyze"} 1`,
		"ringschedd_request_seconds_bucket{endpoint=\"analyze\",le=\"+Inf\"} 1",
		"ringschedd_request_seconds_count{endpoint=\"analyze\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerCloseReapsSSEStreams(t *testing.T) {
	s := New(Config{Workers: 2, SampleEvery: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"streams": 60, "samples": 5000, "seed": 5}`
	resp, err := http.Post(ts.URL+"/v1/sweep?stream=sse", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("no progress frame: %v", err)
	}

	s.Close() // server shutdown must stop the stream's computation
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, running := s.flight.Depth(); running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close did not stop streaming computation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The stream terminates with an error frame.
	rest, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(buf)+string(rest), "event: error") {
		t.Log("stream ended without an explicit error frame (acceptable on write race)")
	}
}

func TestOversizedResultsStillServe(t *testing.T) {
	// A 1 KiB budget (64-byte shards) rejects every body; the server must
	// still serve correct responses, just without cache hits.
	_, ts := newTestServer(t, Config{CacheBytes: 1024})
	first, body1 := post(t, ts.URL+"/v1/analyze", analyzeBody)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d", first.StatusCode)
	}
	second, body2 := post(t, ts.URL+"/v1/analyze", analyzeBody)
	if xc := second.Header.Get("X-Cache"); xc == "hit" {
		t.Error("body larger than the shard budget must not be cached")
	}
	if !bytes.Equal(body1, body2) {
		t.Error("recomputed body differs — responses are not deterministic")
	}
	if n := metricValue(t, ts.URL, `^ringschedd_cache_bytes `); n != 0 {
		t.Errorf("cache_bytes = %g, want 0", n)
	}
}
