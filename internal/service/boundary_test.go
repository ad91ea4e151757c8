package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ringsched/internal/progress"
)

// overflowBodies are decodable /v1/analyze inputs whose magnitudes the
// analysis cannot represent. Each one used to come back 500 code:internal:
// the first two wrap frame.Split's int frame count negative, the third
// scales a payload to +Inf.
var overflowBodies = []struct {
	name, body, field string
}{
	{"lengthBits 1e308", `{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":1e308}]}`, "streams[0].lengthBits"},
	{"periodMs and lengthBits 1e300", `{"bandwidthMbps":100,"streams":[{"periodMs":1e300,"lengthBits":1e300}]}`, "streams[0].lengthBits"},
	{"payloadScales 1e308", `{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":4096}],"payloadScales":[1e308]}`, "payloadScales"},
}

// serve posts body to path on a fresh in-process handler.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return w
}

func TestOverflowingInputsAreRejectedInCanonicalize(t *testing.T) {
	for _, tc := range overflowBodies {
		var req AnalyzeRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err := req.Canonicalize()
		if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Canonicalize = %v, want ErrBadRequest naming %s", tc.name, err, tc.field)
		}
	}
}

// TestOverflowingInputsAnswerTyped400 holds the served status: the three
// bodies above, plus inputs that pass Canonicalize and overflow inside the
// analysis (a cost of +Inf on a near-zero bandwidth, a response time past
// 1e308 s), all answer a typed 400.
func TestOverflowingInputsAnswerTyped400(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	bodies := []string{
		`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":1e22}]}`,
		`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":4096}],"payloadScales":[1e300]}`,
		`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":1e-300}],"payloadScales":[1e-300]}`,
		`{"bandwidthMbps":1e-300,"streams":[{"periodMs":10,"lengthBits":1e18}]}`,
		`{"bandwidthMbps":100,"detail":true,"streams":[{"periodMs":1e-300,"lengthBits":1e18},{"periodMs":1e300,"lengthBits":1e18}]}`,
	}
	for _, tc := range overflowBodies {
		bodies = append(bodies, tc.body)
	}
	for _, body := range bodies {
		w := serve(s.Handler(), "/v1/analyze", body)
		var e errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("%s: %d %s, want 400 code bad_request", body, w.Code, w.Body)
		}
	}
	if n := s.cache.Entries(); n != 0 {
		t.Errorf("%d cache entries after %d refused bodies, want no aliases of them", n, len(bodies))
	}
}

// outOfRangeSweepBodies pass Canonicalize but cannot be swept: the
// saturation search cannot bracket a bandwidth of 1e300 Mbps, and the
// kernel refuses the tasks of a mean period of 1e300 ms.
var outOfRangeSweepBodies = []string{
	`{"bandwidthsMbps":[1e300]}`,
	`{"meanPeriodMs":1e300}`,
}

// sweepGrid lists the bandwidths 1..n Mbps.
func sweepGrid(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(parts, ",")
}

// sweepCapBodies are decodable /v1/sweep inputs one step past a size cap:
// samples, streams, the derived grid and the listed grid.
var sweepCapBodies = []string{
	`{"samples":1000001}`,
	`{"streams":4097}`,
	`{"pointsPerDecade":101}`,
	`{"bandwidthsMbps":[` + sweepGrid(302) + `]}`,
}

// TestOutOfRangeSweepAnswersTyped400: an out-of-range sweep is the
// request's fault. The plain response is a 400 and the SSE stream's error
// event says bad_request, where both used to report code internal. A
// sweep past a size cap is refused by Canonicalize, before any sampling,
// with a plain 400 on both routes.
func TestOutOfRangeSweepAnswersTyped400(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, body := range outOfRangeSweepBodies {
		w := serve(s.Handler(), "/v1/sweep", body)
		var e errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("%s: %d %s, want 400 code bad_request", body, w.Code, w.Body)
		}
		w = serve(s.Handler(), "/v1/sweep?stream=sse", body)
		if !strings.Contains(w.Body.String(), "event: error") || !strings.Contains(w.Body.String(), `"code":"bad_request"`) {
			t.Errorf("%s over SSE: %s, want an error event with code bad_request", body, w.Body)
		}
	}
	for _, body := range sweepCapBodies {
		var req SweepRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%.60s: %v", body, err)
		}
		if _, err := req.Canonicalize(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%.60s: Canonicalize = %v, want ErrBadRequest", body, err)
		}
		for _, path := range []string{"/v1/sweep", "/v1/sweep?stream=sse"} {
			w := serve(s.Handler(), path, body)
			var e errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest || e.Code != "bad_request" {
				t.Errorf("%.60s on %s: %d %s, want 400 code bad_request", body, path, w.Code, w.Body)
			}
		}
	}
}

// TestNonFiniteSweepAnswersTyped400: a sweep result with no JSON form is
// put there by the request's magnitudes, as an analyze or topology one
// is. Encoding it fails with a *json.UnsupportedValueError, which the
// plain route answers with a 400 and the SSE route with an error event,
// both with code bad_request, where both reported code internal. Neither
// leaves a cache entry: no result, and no alias of a body that has none.
func TestNonFiniteSweepAnswersTyped400(t *testing.T) {
	overflow := func(ctx context.Context, req SweepRequest, key string, workers int, obs progress.Progress) (SweepResponse, error) {
		resp, err := sweepCanonical(ctx, req, key, workers, obs)
		if err == nil {
			resp.Series[0].Points[0].Mean = math.Inf(1)
		}
		return resp, err
	}
	var req SweepRequest
	if err := json.Unmarshal([]byte(smallSweepBody), &req); err != nil {
		t.Fatal(err)
	}
	canon, err := req.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := overflow(context.Background(), canon, canon.CacheKey(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var inf *json.UnsupportedValueError
	if _, err := Encode(resp); !errors.As(err, &inf) {
		t.Fatalf("Encode = %v, want a *json.UnsupportedValueError", err)
	}

	s := New(Config{})
	defer s.Close()
	s.sweep = overflow
	w := serve(s.Handler(), "/v1/sweep", smallSweepBody)
	var e errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest ||
		e.Code != "bad_request" || !strings.Contains(e.Error, "out of range") {
		t.Errorf("plain route: %d %s, want 400 code bad_request naming the range", w.Code, w.Body)
	}
	w = serve(s.Handler(), "/v1/sweep?stream=sse", smallSweepBody)
	if body := w.Body.String(); !strings.Contains(body, "event: error") ||
		!strings.Contains(body, `"code":"bad_request"`) || !strings.Contains(body, "out of range") {
		t.Errorf("SSE route: %s, want an error event with code bad_request naming the range", body)
	}
	if n := s.cache.Entries(); n != 0 {
		t.Errorf("%d cache entries after two failed sweeps, want none", n)
	}
}

// TestSweepCapsAdmitTheCap: a sweep exactly at every cap canonicalizes.
func TestSweepCapsAdmitTheCap(t *testing.T) {
	for _, req := range []SweepRequest{
		{Samples: maxSweepSamples, Streams: maxSweepStreams, PointsPerDecade: 100},
		{BandwidthsMbps: make([]float64, maxSweepPoints)},
	} {
		for i := range req.BandwidthsMbps {
			req.BandwidthsMbps[i] = float64(i + 1)
		}
		canon, err := req.Canonicalize()
		if err != nil {
			t.Errorf("a sweep at the caps: %v", err)
		} else if n := len(canon.BandwidthsMbps); n != maxSweepPoints {
			t.Errorf("canonical grid has %d points, want %d", n, maxSweepPoints)
		}
	}
}

// TestSaturatedTTPVisitsAnswer200: a period allowing 2⁶³ or more token
// rotations (1e300 ms at 100 Mbps, TTRT ≈ 3.56e146 s) saturates the
// visit count instead of wrapping it to 1, so FDDI guarantees the stream
// with a finite allocation and the body is a 200, not an overflow 400.
func TestSaturatedTTPVisitsAnswer200(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	w := serve(s.Handler(), "/v1/analyze",
		`{"bandwidthMbps":100,"protocols":["fddi"],"streams":[{"periodMs":1e300,"lengthBits":4096}]}`)
	var resp AnalyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("%d %s (%v), want 200", w.Code, w.Body, err)
	}
	v := resp.Verdicts[0]
	if !v.Schedulable || !(v.TotalAllocation > 0) || !(v.TotalAllocation <= v.Capacity) {
		t.Fatalf("fddi verdict %+v, want schedulable with a finite allocation", v)
	}
}

// FuzzAnalyzeHTTP drives /v1/analyze at the HTTP boundary. Each input is
// posted twice to one Server, and:
//   - the status is 200 or a typed 4xx (a JSON error body with a code),
//     never a 5xx;
//   - a 200 body is byte-equal to Encode(Analyze(the decoded request));
//   - the second send of a 200 is an alias hit (X-Cache: hit, no decode
//     span, an alias cache.lookup hit in its trace) with a byte-identical
//     body; a refused input is refused identically.
func FuzzAnalyzeHTTP(f *testing.F) {
	f.Add(analyzeBody)
	for _, tc := range overflowBodies {
		f.Add(tc.body)
	}
	for _, seed := range []string{
		`{"bandwidthMbps":1e6,"streams":[{"periodMs":10,"lengthBits":4096}]}`,
		`{"bandwidthMbps":1E+6,"streams":[{"periodMs":10,"lengthBits":4096}]}`,
		`{"bandwidthMbps":100,"streams":[{"periodMs":1e-300,"lengthBits":1e-300}]}`,
		`{"bandwidthMbps":1e-300,"streams":[{"periodMs":10,"lengthBits":4096}]}`,
		"\n\t{ \"streams\" : [ {\"lengthBits\":65536, \"periodMs\":50.0, \"name\":\"telemetry\"} ,\n {\"periodMs\":10,\"lengthBits\":4.096e3,\"name\":\"gyro\"}], \"bandwidthMbps\" :1e2 }  \n",
		`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":4096}]} trailing`,
		`{"protocols":["FDDI"," modified-802.5"],"bandwidthMbps":16,"detail":true,"payloadScales":[2,0.5,1.5],` +
			`"faultModel":"gilbert:gap=1e6+loss:p=1e-3","streams":[{"name":"a\"b|c,\u0000é","periodMs":25,"lengthBits":8192},{"periodMs":40,"lengthBits":1024}]}`,
		`{"bandwidthMbps":4,"scenario":"degraded","streams":[{"periodMs":100,"lengthBits":100000}]}`,
		`{"bandwidthMbps":100,"streams":[]}`,
		`{"bandwidthMbps":100,"bogus":1}`,
		`not json`,
	} {
		f.Add(seed)
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		first := serve(h, "/v1/analyze", body)
		second := serve(h, "/v1/analyze", body)
		if first.Code != http.StatusOK {
			var e errorBody
			if first.Code >= 500 || first.Code < 400 || json.Unmarshal(first.Body.Bytes(), &e) != nil || e.Code == "" {
				t.Fatalf("status %d %s, want 200 or a typed 4xx", first.Code, first.Body)
			}
			if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("refused %d %s, then %d %s", first.Code, first.Body, second.Code, second.Body)
			}
			return
		}
		var req AnalyzeRequest
		if err := decodeFrom(strings.NewReader(body), &req); err != nil {
			t.Fatalf("served 200 for a body that does not decode: %v", err)
		}
		resp, err := Analyze(context.Background(), req)
		if err != nil {
			t.Fatalf("served 200 but Analyze fails: %v", err)
		}
		want, err := Encode(resp)
		if err != nil {
			t.Fatalf("served 200 but Encode fails: %v", err)
		}
		if !bytes.Equal(first.Body.Bytes(), want) {
			t.Fatalf("body differs from Encode(Analyze(req)):\n%s\nvs\n%s", first.Body, want)
		}
		if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" || !bytes.Equal(second.Body.Bytes(), want) {
			t.Fatalf("second send: %d X-Cache %q, body equal %v", second.Code, second.Header().Get("X-Cache"),
				bytes.Equal(second.Body.Bytes(), want))
		}
		spans := s.spans.Trace(second.Header().Get("X-Ringsched-Trace"))
		if spanByName(spans, "decode") != nil {
			t.Fatal("the repeated body was decoded again")
		}
		if sp := spanByName(spans, "cache.lookup"); sp == nil || sp.Attrs["alias"] != true || sp.Attrs["outcome"] != "hit" {
			t.Fatalf("second send's cache.lookup span %+v, want an alias hit", sp)
		}
	})
}

// sweepFuzzBudget bounds the work one FuzzSweepHTTP input may ask for, in
// samples × grid points × streams × protocols: a one-point sweep of the
// three protocols at the default 100 samples and 100 streams, tens of
// milliseconds.
const sweepFuzzBudget = 30_000

// FuzzSweepHTTP drives /v1/sweep at the HTTP boundary with
// FuzzTopologyHTTP's assertions. Each input is posted twice to one
// Server, and:
//   - the status is 200 or a typed 4xx (a JSON error body with a code),
//     never a 5xx;
//   - a 200 body is byte-equal to Encode(Sweep(the decoded request));
//   - the second send of a 200 is an alias hit with a byte-identical
//     body; a refused input is refused identically.
//
// An input whose canonical sweep is past sweepFuzzBudget is skipped.
func FuzzSweepHTTP(f *testing.F) {
	for _, seed := range sweepCapBodies {
		f.Add(seed)
	}
	for _, seed := range outOfRangeSweepBodies {
		f.Add(seed)
	}
	for _, seed := range []string{
		`{"bandwidthsMbps":[1e6],"streams":4,"samples":3}`,
		`{"bandwidthsMbps":[1E+6],"streams":4,"samples":3}`,
		`{"bandwidthsMbps":[1e-300],"streams":4,"samples":3}`,
		`{"bandwidthsMbps":[10],"meanPeriodMs":1e6,"streams":4,"samples":3}`,
		`{"bandwidthsMbps":[10],"meanPeriodMs":1E+6,"streams":4,"samples":3}`,
		`{"bandwidthsMbps":[10],"meanPeriodMs":1e-300,"streams":4,"samples":3}`,
		`{"bandwidthsMbps":[10],"meanPeriodMs":1e300,"samples":3}`,
		`{"protocols":["FDDI"," modified-802.5"],"bandwidthsMbps":[100,4,100],"streams":10,"samples":5,"periodRatio":2,"seed":7}`,
		`not json`,
	} {
		f.Add(seed)
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		var req SweepRequest
		decodeErr := decodeFrom(strings.NewReader(body), &req)
		if canon, err := req.Canonicalize(); decodeErr == nil && err == nil &&
			canon.Samples*len(canon.BandwidthsMbps)*canon.Streams*len(canon.Protocols) > sweepFuzzBudget {
			t.Skip("sweep past the fuzz budget")
		}
		first := serve(h, "/v1/sweep", body)
		second := serve(h, "/v1/sweep", body)
		if first.Code != http.StatusOK {
			var e errorBody
			if first.Code >= 500 || first.Code < 400 || json.Unmarshal(first.Body.Bytes(), &e) != nil || e.Code == "" {
				t.Fatalf("status %d %s, want 200 or a typed 4xx", first.Code, first.Body)
			}
			if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("refused %d %s, then %d %s", first.Code, first.Body, second.Code, second.Body)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("served 200 for a body that does not decode: %v", decodeErr)
		}
		resp, err := Sweep(context.Background(), req, 0, nil)
		if err != nil {
			t.Fatalf("served 200 but Sweep fails: %v", err)
		}
		want, err := Encode(resp)
		if err != nil {
			t.Fatalf("served 200 but Encode fails: %v", err)
		}
		if !bytes.Equal(first.Body.Bytes(), want) {
			t.Fatalf("body differs from Encode(Sweep(req)):\n%s\nvs\n%s", first.Body, want)
		}
		if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" || !bytes.Equal(second.Body.Bytes(), want) {
			t.Fatalf("second send: %d X-Cache %q, body equal %v", second.Code, second.Header().Get("X-Cache"),
				bytes.Equal(second.Body.Bytes(), want))
		}
		spans := s.spans.Trace(second.Header().Get("X-Ringsched-Trace"))
		if spanByName(spans, "decode") != nil {
			t.Fatal("the repeated body was decoded again")
		}
		if sp := spanByName(spans, "cache.lookup"); sp == nil || sp.Attrs["alias"] != true || sp.Attrs["outcome"] != "hit" {
			t.Fatalf("second send's cache.lookup span %+v, want an alias hit", sp)
		}
	})
}
