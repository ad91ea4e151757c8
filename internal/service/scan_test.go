package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ringsched/internal/wire"
)

// show renders a decoded request exactly: %#v tells a nil slice from an
// empty one and prints each float in the shortest form that round-trips,
// so two renderings are equal iff the requests are identical.
func show(r any) string { return fmt.Sprintf("%#v", r) }

// checkDecode holds unmarshalStrict to decodeFrom on one analyze body.
func checkDecode(t *testing.T, body []byte) bool {
	t.Helper()
	return checkStrict[AnalyzeRequest](t, body)
}

// checkStrict holds unmarshalStrict to decodeFrom on one body decoded as
// a T: the same error text, the same request, and the scanner never
// accepting a body encoding/json refuses. It returns whether the scanner
// ran.
func checkStrict[T any](t *testing.T, body []byte) bool {
	t.Helper()
	var want, got T
	werr := decodeFrom(bytes.NewReader(body), &want)
	scanned, gerr := unmarshalStrict(body, &got)
	if scanned && werr != nil {
		t.Fatalf("scanner accepted %q, which encoding/json refuses: %v", body, werr)
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%q: error %v, want %v", body, gerr, werr)
	}
	if werr == nil && show(got) != show(want) {
		t.Fatalf("%q (scanned %v):\n got %s\nwant %s", body, scanned, show(got), show(want))
	}
	return scanned
}

// marshalSafe reports whether json.Marshal writes every string of r
// verbatim: printable ASCII other than the quote, the backslash and the
// three bytes it escapes for HTML (<, >, &).
func marshalSafe(r AnalyzeRequest) bool {
	strs := append([]string{r.FaultModel, r.Scenario}, r.Protocols...)
	for _, s := range r.Streams {
		strs = append(strs, s.Name)
	}
	for _, s := range strs {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// scanDeclines are inputs outside the scanner's grammar. encoding/json
// decodes some of them (escapes, null, case-variant and repeated keys)
// and refuses the rest; either way the body's answer is decodeFrom's.
var scanDeclines = []string{
	`{"bandwidthMbps":100,"streams":[{"name":"a\"b","periodMs":10,"lengthBits":1}]}`,
	`{"bandwidthMbps":100,"streams":[{"name":"\u0041","periodMs":10,"lengthBits":1}]}`,
	`{"bandwidthMbps":100,"streams":[{"name":"gyró","periodMs":10,"lengthBits":1}]}`,
	"{\"bandwidthMbps\":100,\"faultModel\":\"a\x7fb\"}",
	"{\"bandwidthMbps\":100,\"faultModel\":\"a\tb\"}",
	`{"bandwidthMbps":100,"streams":null}`,
	`{"bandwidthMbps":null}`,
	`{"bandwidthMbps":100,"protocols":[null]}`,
	`null`,
	`[]`,
	``,
	`{"bandwidthMbps":100,"bogus":1}`,
	`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":1,"prio":1}]}`,
	`{"BandwidthMbps":100}`,
	`{"bandwidthmbps":100}`,
	`{"bandwidthMbps":100,"streams":[{"PeriodMs":10,"lengthBits":1}]}`,
	`{"bandwidthMbps":1,"bandwidthMbps":2}`,
	`{"streams":[{"periodMs":1}],"streams":[{"lengthBits":2}]}`,
	`{"streams":[{"periodMs":1}],"Streams":[{"lengthBits":2}]}`,
	`{"streams":[{"periodMs":1,"periodMs":2}]}`,
	`{"bandwidthMbps":"100"}`,
	`{"bandwidthMbps":true}`,
	`{"detail":1}`,
	`{"detail":"true"}`,
	`{"streams":{}}`,
	`{"streams":[[]]}`,
	`{"protocols":"fddi"}`,
	`{"protocols":[1]}`,
	`{"payloadScales":["1"]}`,
	`{"streams":[{"name":1}]}`,
	`{"bandwidthMbps":01}`,
	`{"bandwidthMbps":1.}`,
	`{"bandwidthMbps":.5}`,
	`{"bandwidthMbps":+1}`,
	`{"bandwidthMbps":-}`,
	`{"bandwidthMbps":1e}`,
	`{"bandwidthMbps":1e+}`,
	`{"bandwidthMbps":0x10}`,
	`{"bandwidthMbps":NaN}`,
	`{"bandwidthMbps":Infinity}`,
	`{"bandwidthMbps":-Infinity}`,
	`{"bandwidthMbps":1e400}`,
	`{"bandwidthMbps":-1e400}`,
	`{"detail":tru}`,
	`{"detail":truex}`,
	`{"detail":True}`,
	`{"bandwidthMbps":100,}`,
	`{"payloadScales":[1,]}`,
	`{"payloadScales":[,1]}`,
	`{"bandwidthMbps" 100}`,
	`{"bandwidthMbps":100 "detail":true}`,
	`{"bandwidthMbps":100`,
	`{"streams":[{"periodMs":10}`,
	"\v{\"bandwidthMbps\":100}",
	"\ufeff{\"bandwidthMbps\":100}",
}

// scanAccepts are inputs inside the grammar, corners included.
var scanAccepts = []string{
	analyzeBody,
	`{}`,
	`{"bandwidthMbps":100,"streams":[]}`,
	`{"protocols":[],"streams":[],"payloadScales":[]}`,
	`{"streams":[{}]}`,
	`{"bandwidthMbps":-0,"streams":[{"periodMs":-0.0e-0,"lengthBits":0}]}`,
	`{"bandwidthMbps":1E+6,"payloadScales":[1e-400,4.9e-324,1.7976931348623157e308,0.1e1,10E-1]}`,
	`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":4096}]} trailing`,
	`{"bandwidthMbps":100}{"bandwidthMbps":200}`,
	`{"bandwidthMbps":100}]`,
	" \t\r\n{ \"detail\" : false , \"scenario\":\"\" ,\n\"protocols\" : [ \"FDDI\" , \" modified-802.5\" ] } ",
	`{"detail":true,"faultModel":"loss:p=1e-3+gilbert:burst=16","scenario":"degraded","streams":[{"name":" !#$%&'()*+,-./:;<=>?@[]^_{|}~","periodMs":25,"lengthBits":8192}]}`,
}

func TestScanAnalyzeDeclinesOutsideItsGrammar(t *testing.T) {
	for _, body := range scanDeclines {
		if _, ok := scanAnalyze([]byte(body)); ok {
			t.Errorf("scanner accepted %q", body)
		}
		checkDecode(t, []byte(body))
	}
}

func TestScanAnalyzeMatchesEncodingJSON(t *testing.T) {
	for _, body := range scanAccepts {
		if !checkDecode(t, []byte(body)) {
			t.Errorf("scanner declined %q", body)
		}
	}
	for _, n := range []int{1, 55, 100} {
		if !checkDecode(t, benchAnalyzeBody(t, n, 100)) {
			t.Errorf("scanner declined the %d-stream body", n)
		}
	}
}

// TestDecodeSpanNamesTheDecoder: a body inside the grammar is decoded by
// the scanner, one outside it (a case-variant key) by encoding/json, and
// the decode span says which.
func TestDecodeSpanNamesTheDecoder(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for body, want := range map[string]string{
		analyzeBody: "scan",
		strings.Replace(analyzeBody, `"bandwidthMbps"`, `"BandwidthMbps"`, 1): "json",
	} {
		w := serve(s.Handler(), "/v1/analyze", body)
		if w.Code != 200 {
			t.Fatalf("%d %s", w.Code, w.Body)
		}
		sp := spanByName(s.spans.Trace(w.Header().Get("X-Ringsched-Trace")), "decode")
		if sp == nil || sp.Attrs["decoder"] != want {
			t.Fatalf("decode span %+v, want decoder %q", sp, want)
		}
	}
}

// FuzzAnalyzeScanner holds the scanner to its contract against
// encoding/json. For any input:
//   - unmarshalStrict answers what decodeFrom answers: the same error
//     text, or the same request with every float bit-identical and nil
//     and empty slices kept apart;
//   - the scanner never accepts a body encoding/json refuses;
//   - coverage: when the input decodes and json.Marshal writes it with
//     no escape and no null (its strings are marshalSafe and it has a
//     streams array; a nil one marshals as null, which the grammar
//     declines and Canonicalize would refuse), the scanner accepts the
//     re-marshaled request, so a scanner that declined everything could
//     not pass.
func FuzzAnalyzeScanner(f *testing.F) {
	f.Add(analyzeBody)
	for _, tc := range overflowBodies {
		f.Add(tc.body)
	}
	// The FuzzAnalyzeHTTP seeds.
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
	// analyze-mix shapes: paper-generator sets with detail, a fault model
	// or payload scales.
	for i, shape := range []AnalyzeRequest{
		{Detail: true},
		{FaultModel: "loss:p=1e-4+gilbert:burst=16"},
		{PayloadScales: []float64{0.5, 0.9, 1.1, 1.5, 2}},
		{Protocols: []string{"fddi", "802.5"}, Scenario: "degraded"},
	} {
		var req AnalyzeRequest
		if err := json.Unmarshal(benchAnalyzeBody(f, 10+30*i, 16), &req); err != nil {
			f.Fatal(err)
		}
		req.Detail, req.FaultModel, req.PayloadScales = shape.Detail, shape.FaultModel, shape.PayloadScales
		req.Protocols, req.Scenario = shape.Protocols, shape.Scenario
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	for _, body := range scanDeclines {
		f.Add(body)
	}
	for _, body := range scanAccepts {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecode(t, []byte(body))
		var req AnalyzeRequest
		if decodeFrom(strings.NewReader(body), &req) != nil || !marshalSafe(req) || req.Streams == nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !checkDecode(t, again) {
			t.Fatalf("scanner declined json.Marshal output %s", again)
		}
	})
}

// editDeclines are ring edit bodies outside scanRingEdit's grammar.
var editDeclines = []string{
	`{"expectedVersion":1e3,"stream":{"periodMs":10,"lengthBits":1}}`,
	`{"expectedVersion":1E3}`,
	`{"expectedVersion":1.0}`,
	`{"expectedVersion":1.5}`,
	`{"expectedVersion":-1}`,
	`{"expectedVersion":-0}`,
	`{"expectedVersion":01}`,
	`{"expectedVersion":+1}`,
	`{"expectedVersion":18446744073709551616}`,
	`{"expectedVersion":99999999999999999999999}`,
	`{"expectedVersion":"1"}`,
	`{"expectedVersion":null}`,
	`{"expectedVersion":true}`,
	`{"expectedVersion":1,"expectedVersion":2}`,
	`{"ExpectedVersion":1}`,
	`{"expectedversion":1}`,
	`{"stream":null}`,
	`{"stream":[]}`,
	`{"stream":{"periodMs":10},"stream":{"lengthBits":1}}`,
	`{"stream":{"periodMs":10,"PeriodMs":20}}`,
	`{"stream":{"name":"é","periodMs":10,"lengthBits":1}}`,
	`{"stream":{"name":"a\"b"}}`,
	`{"stream":{"periodMs":1.}}`,
	`{"stream":{"periodMs":10,"prio":1}}`,
	`{"bogus":1}`,
	`{"expectedVersion":1,}`,
	`{"expectedVersion":1`,
	`[]`,
	`null`,
	``,
}

// editAccepts are ring edit bodies inside the grammar, corners included.
var editAccepts = []string{
	`{}`,
	`{"stream":{}}`,
	`{"expectedVersion":0}`,
	`{"expectedVersion":18446744073709551615}`,
	`{"expectedVersion": 7, "stream": {"name": "bulk", "periodMs": 500, "lengthBits": 2048}}`,
	" \n{ \"stream\" : { \"lengthBits\" : 1E+6 , \"periodMs\":-0 } , \"expectedVersion\" : 12 } trailing",
	`{"stream":{"name":"<&>","periodMs":1e-300,"lengthBits":1e18}}`,
}

func TestScanRingEditMatchesEncodingJSON(t *testing.T) {
	for _, body := range editDeclines {
		if _, ok := scanRingEdit([]byte(body)); ok {
			t.Errorf("scanner accepted %q", body)
		}
		checkStrict[wire.RingEditRequest](t, []byte(body))
	}
	for _, body := range editAccepts {
		if !checkStrict[wire.RingEditRequest](t, []byte(body)) {
			t.Errorf("scanner declined %q", body)
		}
	}
}

// FuzzRingEditScanner holds scanRingEdit to FuzzAnalyzeScanner's contract
// for ring add and modify bodies: unmarshalStrict answers what decodeFrom
// answers (the same error text, or the same request), the scanner never
// accepts a body encoding/json refuses, and json.Marshal of any decoded
// request with a marshal-safe name scans.
func FuzzRingEditScanner(f *testing.F) {
	for _, body := range append(append([]string{}, editDeclines...), editAccepts...) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkStrict[wire.RingEditRequest](t, []byte(body))
		var req wire.RingEditRequest
		if decodeFrom(strings.NewReader(body), &req) != nil || !marshalSafe(AnalyzeRequest{Streams: []StreamSpec{req.Stream}}) {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !checkStrict[wire.RingEditRequest](t, again) {
			t.Fatalf("scanner declined json.Marshal output %s", again)
		}
	})
}

// benchDecode decodes one 55-stream analyze-mix body per op.
func benchDecode(b *testing.B, decode func([]byte, *AnalyzeRequest) error) {
	body := benchAnalyzeBody(b, 55, 100)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req AnalyzeRequest
		if err := decode(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeAnalyzeScan decodes a 55-stream body with the scanner
// (unmarshalStrict, as /v1/analyze does).
func BenchmarkDecodeAnalyzeScan(b *testing.B) {
	benchDecode(b, func(body []byte, req *AnalyzeRequest) error {
		scanned, err := unmarshalStrict(body, req)
		if !scanned {
			b.Fatal("scanner declined the body")
		}
		return err
	})
}

// BenchmarkDecodeAnalyzeJSON decodes the same body with encoding/json
// (decodeFrom, the fallback).
func BenchmarkDecodeAnalyzeJSON(b *testing.B) {
	benchDecode(b, func(body []byte, req *AnalyzeRequest) error {
		return decodeFrom(bytes.NewReader(body), req)
	})
}
