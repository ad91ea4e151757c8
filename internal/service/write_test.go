package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ringsched/internal/wire"
)

// checkAppend holds appendBody and Encode to json.MarshalIndent on one
// value: an accepted value renders the same bytes, and Encode answers the
// same bytes or error text at exact capacity. It returns whether
// appendBody accepted the value.
func checkAppend(t *testing.T, v any) bool {
	t.Helper()
	want, werr := json.MarshalIndent(v, "", "  ")
	want = append(want, '\n')
	got, ok := appendBody(nil, v)
	if ok && werr != nil {
		t.Fatalf("appendBody accepted %#v, which encoding/json refuses: %v", v, werr)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("appendBody differs from MarshalIndent:\n%s\nvs\n%s", got, want)
	}
	body, err := Encode(v)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("Encode error %v, MarshalIndent error %v", err, werr)
	}
	if werr == nil && (!bytes.Equal(body, want) || cap(body) != len(body)) {
		t.Fatalf("Encode gave %d bytes at cap %d, differing from MarshalIndent:\n%s\nvs\n%s", len(body), cap(body), body, want)
	}
	return ok
}

// filler fills values by reflection from a byte stream, so a fuzzer can
// steer every field and a field added to a response type later is filled
// (and must be written) without this test naming it. An exhausted stream
// reads as zeros.
type filler struct {
	t    *testing.T
	data []byte
}

func (f *filler) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *filler) uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = f.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fillFloats are the float corners encoding/json's number form turns on:
// both zeros, the 'e' cutoffs either side, one-digit and three-digit
// negative exponents, the subnormals and the largest finite value.
var fillFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e-6, -1e-6, 9.999999e-7, 1e-7, 1.5e-7, -1e-9,
	1e20, 1e21, -1e21, 9.99999e20, 1e100, 1e-100, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
	4096, 0.016, 3.0000000000000004, 1.0 / 3,
}

// plainStrings are inside the grammar (printable ASCII); escapedStrings
// hold what it declines: the HTML bytes, the quote, the backslash, control
// bytes and non-ASCII.
var (
	plainStrings   = []string{"", "fddi", "modified-802.5", "S12", "a b", " !#$%'()*+,-./:;=?@[]^_`{|}~", "s1"}
	escapedStrings = []string{"<", "a>b", "&amp;", `a"b`, `a\b`, "\x00", "\t", "\x7f", "é", "\u2028", "\xff"}
)

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		switch b := f.byte(); {
		case b < 240: // most strings stay inside the grammar
			v.SetString(plainStrings[int(b)%len(plainStrings)])
		case b < 250:
			v.SetString(escapedStrings[f.byte()%byte(len(escapedStrings))])
		default: // raw bytes, any value
			s := make([]byte, f.byte()%6)
			for i := range s {
				s[i] = f.byte()
			}
			v.SetString(string(s))
		}
	case reflect.Float64:
		switch b := f.byte(); {
		case b == 255: // rare, so most values stay inside the grammar
			v.SetFloat([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[f.byte()%3])
		case b >= 200:
			v.SetFloat(math.Float64frombits(f.uint64()))
		case b >= 100:
			v.SetFloat(float64(int8(f.byte())) * math.Pow(10, float64(int8(f.byte())%30)))
		default:
			v.SetFloat(fillFloats[int(b)%len(fillFloats)])
		}
	case reflect.Int:
		if b := f.byte(); b < 128 {
			v.SetInt(int64(int8(b)) % 8)
		} else {
			v.SetInt(int64(f.uint64()))
		}
	case reflect.Uint64:
		if b := f.byte(); b < 128 {
			v.SetUint(uint64(b))
		} else {
			v.SetUint(f.uint64())
		}
	case reflect.Bool:
		v.SetBool(f.byte()&1 == 1)
	case reflect.Pointer:
		if f.byte()%3 == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		switch b := f.byte() % 4; b {
		case 0:
			v.SetZero()
		default:
			n := int(b) - 1 + int(f.byte()%2)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				f.fill(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	default:
		f.t.Fatalf("no filler for %s (%s): give it one, and appendBody a case", v.Type(), v.Kind())
	}
}

// inGrammar reports whether every string in v is printable ASCII without
// the bytes encoding/json escapes and every float is finite: a value
// appendBody must accept.
func inGrammar(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		s := v.String()
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
		}
	case reflect.Float64:
		f := v.Float()
		return !math.IsNaN(f) && !math.IsInf(f, 0)
	case reflect.Pointer:
		return v.IsNil() || inGrammar(v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !inGrammar(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !inGrammar(v.Field(i)) {
				return false
			}
		}
	}
	return true
}

// hotTypes are the response types appendBody writes.
var hotTypes = []reflect.Type{
	reflect.TypeFor[AnalyzeResponse](), reflect.TypeFor[wire.RingResponse](), reflect.TypeFor[wire.RingEditResponse](),
}

// checkFilled fills one hot type from data and checks it, failing when a
// value inside the grammar is declined. It returns whether it was
// accepted.
func checkFilled(t *testing.T, data []byte) bool {
	t.Helper()
	f := &filler{t: t, data: data}
	v := reflect.New(hotTypes[int(f.byte())%len(hotTypes)]).Elem()
	f.fill(v)
	ok := checkAppend(t, v.Interface())
	if !ok && inGrammar(v) {
		t.Fatalf("appendBody declined a value inside its grammar: %#v", v.Interface())
	}
	return ok
}

// TestAppendBodyMatchesMarshalIndent: 3000 hot-type values filled by
// reflection from random bytes, and analyze responses of 1-100 streams
// with and without detail, fault models and payload scales, all render
// exactly as encoding/json renders them.
func TestAppendBodyMatchesMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	accepted := 0
	for i := 0; i < 3000; i++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		if checkFilled(t, data) {
			accepted++
		}
	}
	if accepted < 300 {
		t.Fatalf("appendBody accepted %d of 3000 filled values", accepted)
	}
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		var req AnalyzeRequest
		if err := json.Unmarshal(benchAnalyzeBody(t, 1+rng.Intn(100), []float64{4, 16, 100}[rng.Intn(3)]), &req); err != nil {
			t.Fatal(err)
		}
		req.Detail = rng.Intn(2) == 0
		if rng.Intn(10) < 3 {
			req.FaultModel = "loss:p=1e-3+gilbert:burst=16"
		}
		if rng.Intn(10) < 3 {
			req.PayloadScales = []float64{0.5, 1.5, 4}
		}
		resp, err := Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !checkAppend(t, resp) {
			t.Fatalf("appendBody declined an analyze response: %+v", req)
		}
	}
}

// TestAppendBodyDeclines: values outside the grammar go to encoding/json,
// which escapes the strings and refuses the non-finite floats with the
// error the service maps to a 400.
func TestAppendBodyDeclines(t *testing.T) {
	var declined []any
	for _, s := range escapedStrings {
		declined = append(declined, wire.RingResponse{ID: s})
	}
	for _, v := range append(declined,
		AnalyzeResponse{CacheKey: "<k>"},
		AnalyzeResponse{Verdicts: []Verdict{{Protocol: "a&b"}}},
		wire.RingEditResponse{Op: `"`},
		AnalyzeResponse{BandwidthMbps: math.Inf(1)},
		wire.RingResponse{Verdicts: []Verdict{{Streams: []StreamVerdict{{ResponseTime: math.NaN()}}}}},
		&AnalyzeResponse{},
		wire.RingListResponse{},
	) {
		if checkAppend(t, v) {
			t.Errorf("appendBody accepted %#v", v)
		}
	}
	if _, err := Encode(AnalyzeResponse{BandwidthMbps: math.Inf(1)}); fmt.Sprint(err) != "json: unsupported value: +Inf" {
		t.Errorf("Encode(+Inf) = %v", err)
	}
}

// FuzzEncodeResponse is appendBody's differential contract. Each input
// fills one of the three hot types by reflection (every exported field,
// so a field added later without a writer case fails), and:
//   - appendBody's bytes equal json.MarshalIndent plus '\n' whenever it
//     accepts, and it never accepts what encoding/json refuses;
//   - Encode answers MarshalIndent's bytes or error text, at exact
//     capacity;
//   - coverage: a value whose strings are printable ASCII outside `"\<>&`
//     and whose floats are finite is accepted.
func FuzzEncodeResponse(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 300))
	f.Add(bytes.Repeat([]byte{2, 250}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFilled(t, data)
	})
}

// encodeJSON renders v through Encode's pooled encoding/json path alone.
func encodeJSON(v any) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	defer e.release()
	return e.marshal(v)
}

// BenchmarkEncodeAnalyzeResponse renders a 55-stream detail analyze
// response: "append" through Encode (appendBody), "json" through the
// pooled encoding/json path Encode falls back to.
func BenchmarkEncodeAnalyzeResponse(b *testing.B) {
	var req AnalyzeRequest
	if err := json.Unmarshal(benchAnalyzeBody(b, 55, 100), &req); err != nil {
		b.Fatal(err)
	}
	req.Detail = true
	resp, err := Analyze(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		encode func(any) ([]byte, bool, error)
		want   bool
	}{
		{"append", encode, true},
		{"json", func(v any) ([]byte, bool, error) { b, err := encodeJSON(v); return b, false, err }, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			body, appended, err := tc.encode(resp)
			if err != nil || appended != tc.want {
				b.Fatalf("appended %v, %v", appended, err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tc.encode(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodeSpanNamesTheEncoder: a miss whose response is inside the
// writer's grammar is encoded by appendBody, one with a name encoding/json
// escapes by encoding/json, and the encode span says which.
func TestEncodeSpanNamesTheEncoder(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for body, want := range map[string]string{
		`{"bandwidthMbps":100,"detail":true,"streams":[{"name":"gyro","periodMs":10,"lengthBits":4096}]}`:   "append",
		`{"bandwidthMbps":100,"detail":true,"streams":[{"name":"<gyro>","periodMs":10,"lengthBits":4096}]}`: "json",
	} {
		w := serve(s.Handler(), "/v1/analyze", body)
		if w.Code != 200 {
			t.Fatalf("%d %s", w.Code, w.Body)
		}
		sp := spanByName(s.spans.Trace(w.Header().Get("X-Ringsched-Trace")), "encode")
		if sp == nil || sp.Attrs["encoder"] != want {
			t.Fatalf("encode span %+v, want encoder %q", sp, want)
		}
	}
}
