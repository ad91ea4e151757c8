package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"ringsched/internal/message"
	"ringsched/internal/topology"
)

// lineTopologySpec is a bridged 3-ring line mixing all three protocols,
// mirroring the analysis- and simulation-layer fixtures.
const lineTopologySpec = "ring:name=a,proto=8025mod,bw=16e6" +
	" + ring:name=b,proto=fddi,bw=100e6" +
	" + ring:name=c,proto=8025,bw=16e6" +
	" + bridge:a=a,b=b,latency=100us" +
	" + bridge:a=b,b=c,latency=100us" +
	" + flow:name=cross,src=a,dst=c,period=100ms,bits=4096" +
	" + flow:name=feed,src=b,dst=c,period=50ms,bits=2048" +
	" + flow:name=local,src=b,period=20ms,bits=1024"

// TestTopologySingleRingVerdictMatchesAnalyze pins the refactor's service
// contract: a 1-node topology's ring verdict is identical — field for
// field — to what /v1/analyze reports for the same streams, for every
// workload preset and every protocol.
func TestTopologySingleRingVerdictMatchesAnalyze(t *testing.T) {
	ctx := context.Background()
	protos := map[topology.Protocol]string{
		topology.Standard8025: ProtocolStandardPDP,
		topology.Modified8025: ProtocolModifiedPDP,
		topology.FDDI:         ProtocolTTP,
	}
	for _, preset := range message.Presets() {
		for pspec, slug := range protos {
			var flows []FlowSpec
			var streams []StreamSpec
			for _, s := range preset.Set {
				flows = append(flows, FlowSpec{
					Name: s.Name, Src: "r", PeriodMs: s.Period * 1e3, LengthBits: s.LengthBits,
				})
				streams = append(streams, StreamSpec{
					Name: s.Name, PeriodMs: s.Period * 1e3, LengthBits: s.LengthBits,
				})
			}
			topoResp, err := AnalyzeTopology(ctx, TopologyRequest{
				Topology: fmt.Sprintf("ring:name=r,proto=%s,bw=80e6", pspec),
				Flows:    flows,
				Detail:   true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", preset.Name, slug, err)
			}
			direct, err := Analyze(ctx, AnalyzeRequest{
				Protocols:     []string{slug},
				BandwidthMbps: 80,
				Streams:       streams,
				Detail:        true,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", preset.Name, slug, err)
			}
			if len(topoResp.Rings) != 1 || topoResp.Rings[0].Verdict == nil {
				t.Fatalf("%s/%s: want 1 ring with a verdict, got %+v", preset.Name, slug, topoResp.Rings)
			}
			got := *topoResp.Rings[0].Verdict
			want := direct.Verdicts[0]
			// The topology path zeroes non-finite stream fields before
			// marshaling; apply the same to the direct verdict so the
			// comparison is field-for-field fair.
			sanitizeVerdict(&want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: topology ring verdict differs from /v1/analyze:\n got  %+v\n want %+v",
					preset.Name, slug, got, want)
			}
			if topoResp.Rings[0].Schedulable != want.Schedulable {
				t.Errorf("%s/%s: ring schedulable %v != verdict %v",
					preset.Name, slug, topoResp.Rings[0].Schedulable, want.Schedulable)
			}
			// Every flow is local, so each must be bounded by its ring
			// response alone with no bridge delays.
			for _, f := range topoResp.Flows {
				if len(f.BridgeDelaysMs) != 0 || len(f.Path) != 1 {
					t.Errorf("%s/%s: local flow %q crossed bridges: %+v", preset.Name, slug, f.Name, f)
				}
			}
		}
	}
}

// TestTopologyRequestCanonicalization pins that structured flows and spec
// clauses canonicalize to the same request — and the same cache key.
func TestTopologyRequestCanonicalization(t *testing.T) {
	viaSpec := TopologyRequest{
		Topology: "ring:name=r,proto=8025,bw=16e6" +
			" + flow:name=x,src=r,period=10ms,bits=2048" +
			" + flow:name=y,src=r,period=25ms,bits=4096",
	}
	viaFlows := TopologyRequest{
		Topology: "ring:name=r,proto=8025,bw=16000000",
		Flows: []FlowSpec{
			// Reversed order and defaulted Dst; canonicalization sorts.
			{Name: "y", Src: "r", PeriodMs: 25, LengthBits: 4096},
			{Name: "x", Src: "r", Dst: "r", PeriodMs: 10, LengthBits: 2048},
		},
	}
	a, err := viaSpec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaFlows.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Topology != b.Topology {
		t.Errorf("canonical specs differ:\n %q\n %q", a.Topology, b.Topology)
	}
	if a.CacheKey() != b.CacheKey() {
		t.Error("equivalent requests hash differently")
	}
	detailed := a
	detailed.Detail = true
	if detailed.CacheKey() == a.CacheKey() {
		t.Error("detail flag must change the cache key")
	}

	for _, bad := range []TopologyRequest{
		{},
		{Topology: "ring:name=r,proto=nope"},
		{Topology: "ring:name=r", Flows: []FlowSpec{{Src: "ghost", PeriodMs: 10, LengthBits: 1}}},
		{Topology: "ring:name=r", Flows: []FlowSpec{{Src: "r", PeriodMs: -1, LengthBits: 1}}},
	} {
		if _, err := bad.Canonicalize(); err == nil {
			t.Errorf("invalid request accepted: %+v", bad)
		}
	}
}

// TestTopologyEndpointServesBridgedLine exercises the full HTTP path: a
// bridged 3-ring request returns per-ring verdicts and finite end-to-end
// bounds, repeats hit the cache bit-identically, and bad specs get 400.
func TestTopologyEndpointServesBridgedLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := json.Marshal(TopologyRequest{Topology: lineTopologySpec, Detail: true})
	if err != nil {
		t.Fatal(err)
	}

	resp1, b1 := post(t, ts.URL+"/v1/topology/analyze", string(body))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q", got)
	}
	var out TopologyResponse
	if err := json.Unmarshal(b1, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Schedulable || !out.Bounded {
		t.Errorf("fixture must be schedulable and bounded: %+v", out)
	}
	if len(out.Rings) != 3 || len(out.Flows) != 3 || len(out.Bridges) == 0 {
		t.Fatalf("%d rings, %d flows, %d bridges", len(out.Rings), len(out.Flows), len(out.Bridges))
	}
	for _, rv := range out.Rings {
		if rv.Verdict == nil || len(rv.Verdict.Streams) == 0 {
			t.Errorf("ring %q missing detailed verdict", rv.Name)
		}
	}
	for _, f := range out.Flows {
		if !f.Bounded || f.BoundMs <= 0 {
			t.Errorf("flow %q not bounded: %+v", f.Name, f)
		}
		if len(f.RingDelaysMs) != len(f.Path) {
			t.Errorf("flow %q: %d ring delays for %d hops", f.Name, len(f.RingDelaysMs), len(f.Path))
		}
	}
	// The cross flow spans a—b—c and pays two bridge delays.
	for _, f := range out.Flows {
		if f.Name == "cross" && (len(f.Path) != 3 || len(f.BridgeDelaysMs) != 2) {
			t.Errorf("cross flow path %v bridges %v", f.Path, f.BridgeDelaysMs)
		}
	}

	resp2, b2 := post(t, ts.URL+"/v1/topology/analyze", string(body))
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat request X-Cache = %q", got)
	}
	if string(b1) != string(b2) {
		t.Error("cached response not bit-identical")
	}

	if resp, b := post(t, ts.URL+"/v1/topology/analyze", `{"topology": "ring:name=r,proto=nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status %d: %s", resp.StatusCode, b)
	}
	if resp, _ := post(t, ts.URL+"/v1/topology/analyze", `{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/topology/analyze")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", getResp.StatusCode)
	}
}

// TestTopologyUnstableBridgeStillMarshals pins the JSON contract for
// infinite bounds: an overloaded bridge direction yields Stable=false and
// Bounded=false with the infinite fields omitted, never a marshal error.
func TestTopologyUnstableBridgeStillMarshals(t *testing.T) {
	spec := "ring:name=a,proto=8025,bw=16e6 + ring:name=b,proto=8025,bw=16e6" +
		" + bridge:a=a,b=b,rate=1e3" +
		" + flow:name=f,src=a,dst=b,period=100ms,bits=4096"
	resp, err := AnalyzeTopology(context.Background(), TopologyRequest{Topology: spec})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Bounded || resp.Schedulable {
		t.Errorf("overloaded bridge reported bounded/schedulable: %+v", resp)
	}
	var unstable *TopologyBridgeVerdict
	for i := range resp.Bridges {
		if !resp.Bridges[i].Stable {
			unstable = &resp.Bridges[i]
		}
	}
	if unstable == nil {
		t.Fatal("no unstable bridge direction reported")
	}
	if unstable.DelayBoundMs != 0 || unstable.BurstBits != 0 {
		t.Errorf("unstable direction carries bound fields: %+v", unstable)
	}
	b, err := Encode(resp)
	if err != nil {
		t.Fatalf("response with infinite analytical bounds failed to marshal: %v", err)
	}
	if strings.Contains(string(b), "Inf") {
		t.Errorf("marshaled response leaks an infinity:\n%s", b)
	}
	for _, f := range resp.Flows {
		if f.Bounded || f.BoundMs != 0 || f.RingDelaysMs != nil {
			t.Errorf("unbounded flow carries bound fields: %+v", f)
		}
	}
}

// overflowTopology is a decodable topology whose FDDI ring, at 1e-300
// bit/s, carries a flow whose verdict overflows to +Inf.
const overflowTopology = "ring:name=a,proto=fddi,bw=1e-300 + flow:name=f,src=a,dst=a,period=10ms,bits=1e18"

// TestTopologyOverflowAnswersTyped400: a topology whose verdicts hold a
// number JSON cannot carry is refused with /v1/analyze's typed 400, with
// and without detail, never a 500.
func TestTopologyOverflowAnswersTyped400(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	const want = `{"error":"service: bad request: analysis result out of range: json: unsupported value: +Inf","code":"bad_request"}` + "\n"
	for _, body := range []string{
		`{"topology":"` + overflowTopology + `"}`,
		`{"topology":"` + overflowTopology + `","detail":true}`,
	} {
		if w := serve(s.Handler(), "/v1/topology/analyze", body); w.Code != http.StatusBadRequest || w.Body.String() != want {
			t.Errorf("%s: %d %s, want 400 %s", body, w.Code, w.Body, want)
		}
	}
}

// payloadPastBoundTopologies carry a flow at or past frame.MaxPayloadBits
// (2^72 bits): on an FDDI ring it used to answer 200 with utilization
// 1e302, on an 802.5 ring a 400 naming no flow.
var payloadPastBoundTopologies = []string{
	`{"topology":"ring:name=a,proto=fddi,bw=100e6 + flow:name=f,src=a,dst=a,period=10ms,bits=1e308"}`,
	`{"topology":"ring:name=a,proto=8025,bw=16e6 + flow:name=f,src=a,dst=a,period=10ms,bits=1e308"}`,
	`{"topology":"ring:name=a,proto=8025mod,bw=16e6","flows":[{"name":"f","src":"a","periodMs":10,"lengthBits":4722366482869645213696}]}`,
}

// TestTopologyPayloadBoundNamesTheFlow: a flow payload past the bound,
// from the spec or from the structured flows, is refused by Canonicalize
// with a typed 400 naming the flow, as /v1/analyze names
// streams[i].lengthBits.
func TestTopologyPayloadBoundNamesTheFlow(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, body := range payloadPastBoundTopologies {
		var req TopologyRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if _, err := req.Canonicalize(); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), `flow "f"`) {
			t.Errorf("%s: Canonicalize = %v, want ErrBadRequest naming flow \"f\"", body, err)
		}
		w := serve(s.Handler(), "/v1/topology/analyze", body)
		var e errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != http.StatusBadRequest ||
			e.Code != "bad_request" || !strings.Contains(e.Error, `flow "f" bits`) {
			t.Errorf("%s: %d %s, want 400 bad_request naming flow \"f\"", body, w.Code, w.Body)
		}
	}
}

// FuzzTopologyHTTP drives /v1/topology/analyze at the HTTP boundary with
// FuzzAnalyzeHTTP's assertions. Each input is posted twice to one Server,
// and:
//   - the status is 200 or a typed 4xx (a JSON error body with a code),
//     never a 5xx;
//   - a 200 body is byte-equal to Encode(AnalyzeTopology(the decoded
//     request));
//   - the second send of a 200 is an alias hit with a byte-identical
//     body; a refused input is refused identically.
func FuzzTopologyHTTP(f *testing.F) {
	for _, seed := range []string{
		`{"topology":"` + overflowTopology + `"}`,
		`{"topology":"` + overflowTopology + `","detail":true}`,
		`{"topology":"ring:name=a,proto=fddi,bw=100e6 + flow:name=f,src=a,dst=a,period=10ms,bits=1e308"}`,
		`{"topology":"` + lineTopologySpec + `"}`,
		`{"topology":"` + lineTopologySpec + `","detail":true}`,
		// The grammar joins clauses with "+", so an exponent's sign splits
		// the spec: a typed 400.
		`{"topology":"ring:name=a,proto=8025,bw=16e6 + flow:name=f,src=a,period=10ms,bits=1e+18"}`,
		`{"topology":"ring:name=r","flows":[{"src":"r","periodMs":10,"lengthBits":4096}]}`,
		`{"topology":""}`,
		`not json`,
	} {
		f.Add(seed)
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		first := serve(h, "/v1/topology/analyze", body)
		second := serve(h, "/v1/topology/analyze", body)
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
		var req TopologyRequest
		if err := decodeFrom(strings.NewReader(body), &req); err != nil {
			t.Fatalf("served 200 for a body that does not decode: %v", err)
		}
		resp, err := AnalyzeTopology(context.Background(), req)
		if err != nil {
			t.Fatalf("served 200 but AnalyzeTopology fails: %v", err)
		}
		want, err := Encode(resp)
		if err != nil {
			t.Fatalf("served 200 but Encode fails: %v", err)
		}
		if !bytes.Equal(first.Body.Bytes(), want) {
			t.Fatalf("body differs from Encode(AnalyzeTopology(req)):\n%s\nvs\n%s", first.Body, want)
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
