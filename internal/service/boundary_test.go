package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
