package service

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ringsched/internal/trace"
)

var updateTracesGolden = flag.Bool("update", false, "rewrite testdata/debug_traces.golden with the current bodies")

// tracesGoldenMix is the fixed, sequential request mix behind
// testdata/debug_traces.golden: an analyze miss, its alias hit, a 400, a
// ring create, add, modify and remove, and a topology call.
var tracesGoldenMix = []struct{ method, path, body string }{
	{http.MethodPost, "/v1/analyze", analyzeBody},
	{http.MethodPost, "/v1/analyze", analyzeBody},
	{http.MethodPost, "/v1/analyze", `{"bandwidthMbps":-1,"streams":[{"periodMs":10,"lengthBits":4096}]}`},
	{http.MethodPost, "/v1/rings", ringCreateBody},
	{http.MethodPost, "/v1/rings/r1/streams", `{"expectedVersion":1,"stream":{"name":"x","periodMs":5,"lengthBits":1024}}`},
	{http.MethodPut, "/v1/rings/r1/streams/s3", `{"expectedVersion":2,"stream":{"name":"x","periodMs":7,"lengthBits":2048}}`},
	{http.MethodDelete, "/v1/rings/r1/streams/s3?expectedVersion=3", ""},
	{http.MethodPost, "/v1/topology/analyze", `{"topology":"ring:name=a,proto=8025mod,bw=16e6 + ring:name=b,proto=fddi,bw=100e6 + bridge:a=a,b=b,latency=100us + flow:name=cross,src=a,dst=b,period=100ms,bits=4096"}`},
}

// traceMasker replaces what differs from run to run in span JSON: each
// distinct trace, span or parent ID becomes an ordinal in order of first
// appearance (so parentage stays checkable), and start times and
// durations become constants.
type traceMasker struct {
	ids map[string]string
}

var (
	idField    = regexp.MustCompile(`"(traceId|spanId|parentId)":"([0-9a-f]+)"`)
	startField = regexp.MustCompile(`"start":"[^"]*"`)
	durField   = regexp.MustCompile(`"durationUs":[-+.0-9eE]+`)
)

func (m *traceMasker) mask(b []byte) []byte {
	b = idField.ReplaceAllFunc(b, func(f []byte) []byte {
		sub := idField.FindSubmatch(f)
		id := string(sub[2])
		name, ok := m.ids[id]
		if !ok {
			name = "id" + strconv.Itoa(len(m.ids)+1)
			m.ids[id] = name
		}
		return []byte(`"` + string(sub[1]) + `":"` + name + `"`)
	})
	b = startField.ReplaceAll(b, []byte(`"start":"S"`))
	return durField.ReplaceAll(b, []byte(`"durationUs":0`))
}

// TestDebugTracesGolden holds the rendered span bytes: every ?trace=
// body of the mix, the unfiltered /debug/traces list and the JSONL sink's
// lines, masked, equal testdata/debug_traces.golden byte for byte.
// Regenerate with `go test ./internal/service -run TestDebugTracesGolden
// -update` only for a deliberate change to the span vocabulary.
func TestDebugTracesGolden(t *testing.T) {
	var jsonl bytes.Buffer
	s := New(Config{TraceSink: trace.NewJSONL(&jsonl)})
	defer s.Close()
	h := s.Handler()

	get := func(path string) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	m := &traceMasker{ids: map[string]string{}}
	var out bytes.Buffer
	for _, rq := range tracesGoldenMix {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body)))
		id := w.Header().Get("X-Ringsched-Trace")
		if id == "" {
			t.Fatalf("%s %s: no X-Ringsched-Trace header", rq.method, rq.path)
		}
		out.WriteString("== " + rq.method + " " + rq.path + " -> " + strconv.Itoa(w.Code) + " X-Cache=" + w.Header().Get("X-Cache") + "\n")
		out.Write(m.mask(get("/debug/traces?trace=" + id)))
	}
	out.WriteString("== GET /debug/traces\n")
	out.Write(m.mask(get("/debug/traces")))
	out.WriteString("== JSONL\n")
	out.Write(m.mask(jsonl.Bytes()))

	const path = "testdata/debug_traces.golden"
	if *updateTracesGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(wantLines); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("masked traces differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
