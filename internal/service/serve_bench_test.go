package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/wire"
)

// benchWriter is a reusable ResponseWriter that keeps only what the
// benchmarks check, so the handler's own allocations are what they count.
type benchWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *benchWriter) Header() http.Header { return w.h }

func (w *benchWriter) WriteHeader(code int) { w.code = code }

func (w *benchWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// benchBody is a reusable request body.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchAnalyzeBody draws a paper-generator set of n streams at 45 %
// utilization of bw Mbps, as perfbench's analyze-mix does, and returns
// its /v1/analyze body.
func benchAnalyzeBody(tb testing.TB, n int, bw float64) []byte {
	tb.Helper()
	gen := message.PaperGenerator()
	gen.Streams = n
	set, err := gen.Draw(rand.New(rand.NewSource(51)))
	if err != nil {
		tb.Fatal(err)
	}
	if set, err = set.ScaleToUtilization(0.45, ring.Mbps(bw)); err != nil {
		tb.Fatal(err)
	}
	req := AnalyzeRequest{BandwidthMbps: bw}
	for _, s := range set {
		req.Streams = append(req.Streams, StreamSpec{Name: s.Name, PeriodMs: s.Period * 1e3, LengthBits: s.LengthBits})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// benchServer sends bodies to one route of one Server through a single
// reused request, writer and body reader.
type benchServer struct {
	h   http.Handler
	w   benchWriter
	rd  benchBody
	req *http.Request
}

func newBenchServer(tb testing.TB, s *Server, method, path string) *benchServer {
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.RemoteAddr = "192.0.2.1:40000"
	req.Header.Set("Content-Type", "application/json")
	bs := &benchServer{h: s.Handler(), w: benchWriter{h: http.Header{}}, req: req}
	req.Body = &bs.rd
	return bs
}

func (bs *benchServer) post(tb testing.TB, body []byte, wantCache string) {
	bs.rd.Reset(body)
	bs.req.ContentLength = int64(len(body))
	clear(bs.w.h)
	bs.w.code, bs.w.n = 0, 0
	bs.h.ServeHTTP(&bs.w, bs.req)
	if bs.w.code != http.StatusOK || bs.w.h.Get("X-Cache") != wantCache {
		tb.Fatalf("status %d, X-Cache %q, want 200 %q", bs.w.code, bs.w.h.Get("X-Cache"), wantCache)
	}
}

// BenchmarkServeAnalyzeHit serves a repeated 55-stream /v1/analyze body:
// the alias answers it without decode, canonicalize or key.
func BenchmarkServeAnalyzeHit(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	bs := newBenchServer(b, s, http.MethodPost, "/v1/analyze")
	body := benchAnalyzeBody(b, 55, 100)
	bs.post(b, body, "miss")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.post(b, body, "hit")
	}
}

// BenchmarkServeAnalyzeMiss serves a never-seen 55-stream /v1/analyze
// body per op (the set differs only in its bandwidth): alias lookup,
// decode, canonicalize, key, the Theorem 4.1 and 5.1 analyses, encode and
// both cache inserts.
func BenchmarkServeAnalyzeMiss(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	bs := newBenchServer(b, s, http.MethodPost, "/v1/analyze")
	base := benchAnalyzeBody(b, 55, 100)
	var req AnalyzeRequest
	if err := json.Unmarshal(base, &req); err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		req.BandwidthMbps = 100 + float64(i)/1024
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.post(b, bodies[i], "miss")
	}
}

// BenchmarkServeRingEdit serves one modify per op on a resident 32-stream
// ring at 16 Mbps: body read and scan, the CAS edit's incremental
// analysis on all three protocols, the audit append and the response
// encode. The modify moves a mid-priority stream between two periods, so
// every op re-probes the same suffix; each body names the version it
// expects.
func BenchmarkServeRingEdit(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	var req AnalyzeRequest
	if err := json.Unmarshal(benchAnalyzeBody(b, 32, 16), &req); err != nil {
		b.Fatal(err)
	}
	create, err := json.Marshal(wire.RingCreateRequest{BandwidthMbps: req.BandwidthMbps, Streams: req.Streams})
	if err != nil {
		b.Fatal(err)
	}
	w := serve(s.Handler(), "/v1/rings", string(create))
	if w.Code != http.StatusCreated {
		b.Fatalf("create: %d %s", w.Code, w.Body)
	}
	ring := decodeJSON[wire.RingResponse](b, w.Body.Bytes())
	mid := ring.Streams[16]
	bs := newBenchServer(b, s, http.MethodPut, "/v1/rings/"+ring.ID+"/streams/"+mid.ID)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		edit := wire.RingEditRequest{ExpectedVersion: ring.Version + uint64(i), Stream: StreamSpec{
			Name: mid.Name, PeriodMs: mid.PeriodMs * (1 + float64(i%2)/64), LengthBits: mid.LengthBits,
		}}
		if bodies[i], err = json.Marshal(edit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.post(b, bodies[i], "")
	}
}
