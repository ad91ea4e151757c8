package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestDisabledFastPathAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	errSentinel := errors.New("x")
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := Start(ctx, "op")
		sp.SetAttr("k", 1)
		sp.SetError(errSentinel)
		sp.End()
		if c != ctx {
			t.Fatal("disabled Start must return the same context")
		}
		if sp != nil {
			t.Fatal("disabled Start must return a nil span")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates: %v allocs/op", allocs)
	}
}

func TestNilSpanMethodsAreSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.SetError(errors.New("boom"))
	sp.End()
	if sp.Name() != "" || !sp.TraceID().IsZero() || sp.Duration() != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
}

func TestParentChildLinkage(t *testing.T) {
	ring := NewRing(16)
	ctx := WithTracer(context.Background(), New(ring))

	ctx, root := Start(ctx, "root")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.SetAttr("code", 200)
	root.End()

	recs := ring.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	rootRec, childRec, grandRec := byName["root"], byName["child"], byName["grandchild"]
	if rootRec.ParentID != "" {
		t.Fatalf("root has parent %q", rootRec.ParentID)
	}
	if childRec.ParentID != rootRec.SpanID {
		t.Fatalf("child parent %q, want %q", childRec.ParentID, rootRec.SpanID)
	}
	if grandRec.ParentID != childRec.SpanID {
		t.Fatalf("grandchild parent %q, want %q", grandRec.ParentID, childRec.SpanID)
	}
	for _, r := range recs {
		if r.TraceID != rootRec.TraceID {
			t.Fatalf("span %q has trace %q, want %q", r.Name, r.TraceID, rootRec.TraceID)
		}
	}
	if rootRec.Attrs["code"] != float64(200) && rootRec.Attrs["code"] != 200 {
		// Attrs survive in-memory without JSON round-tripping, so the raw
		// int is what we stored.
		t.Fatalf("root attrs = %v", rootRec.Attrs)
	}
}

// TestStartLeafMatchesStart: a leaf span has the parent, trace and record
// Start would give it, is a fresh root under a bare tracer and nil with
// no tracer, and costs one allocation fewer than Start.
func TestStartLeafMatchesStart(t *testing.T) {
	if StartLeaf(context.Background(), "op") != nil {
		t.Fatal("StartLeaf without a tracer must return a nil span")
	}
	ring := NewRing(16)
	ctx := WithTracer(context.Background(), New(ring))
	lone := StartLeaf(ctx, "lone")
	lone.End()
	if rec := ring.Snapshot()[0]; rec.Name != "lone" || rec.ParentID != "" || rec.TraceID == "" {
		t.Fatalf("leaf under a bare tracer = %+v, want a root", rec)
	}

	ctx, root := Start(ctx, "root")
	_, child := Start(ctx, "child")
	leaf := StartLeaf(ctx, "leaf")
	leaf.SetAttr("k", 1)
	leaf.End()
	child.SetAttr("k", 1)
	child.End()
	root.End()
	byName := map[string]Record{}
	for _, r := range ring.Snapshot() {
		byName[r.Name] = r
	}
	want, got := byName["child"], byName["leaf"]
	if got.TraceID != want.TraceID || got.ParentID != want.ParentID || got.Attrs["k"] != want.Attrs["k"] {
		t.Fatalf("leaf %+v, want the child's trace, parent and attrs %+v", got, want)
	}

	starts := testing.AllocsPerRun(100, func() { _, sp := Start(ctx, "op"); sp.End() })
	leaves := testing.AllocsPerRun(100, func() { StartLeaf(ctx, "op").End() })
	if leaves != starts-1 {
		t.Fatalf("StartLeaf %v allocs/op, Start %v: want one fewer", leaves, starts)
	}
}

func TestStartRootAdoptsSuppliedTraceID(t *testing.T) {
	ring := NewRing(4)
	ctx := WithTracer(context.Background(), New(ring))
	want, err := ParseTraceID("000102030405060708090a0b0c0d0e0f")
	if err != nil {
		t.Fatal(err)
	}
	_, sp := StartRoot(ctx, "req", want)
	if sp.TraceID() != want {
		t.Fatalf("trace id %s, want %s", sp.TraceID(), want)
	}
	sp.End()
	if got := ring.Snapshot()[0].TraceID; got != want.String() {
		t.Fatalf("exported trace id %s, want %s", got, want)
	}
}

func TestStartRootIgnoresCurrentSpan(t *testing.T) {
	ring := NewRing(4)
	ctx := WithTracer(context.Background(), New(ring))
	ctx, outer := Start(ctx, "outer")
	_, root := StartRoot(ctx, "fresh", TraceID{})
	if root.TraceID() == outer.TraceID() {
		t.Fatal("StartRoot must begin a new trace")
	}
	root.End()
	outer.End()
	if ring.Snapshot()[0].ParentID != "" {
		t.Fatal("StartRoot span must have no parent")
	}
}

func TestParseTraceID(t *testing.T) {
	if id, err := ParseTraceID(""); err != nil || !id.IsZero() {
		t.Fatalf("empty input: id=%v err=%v", id, err)
	}
	for _, bad := range []string{"zz", "0011", strings.Repeat("0", 32), strings.Repeat("g", 32)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Fatalf("ParseTraceID(%q) accepted malformed input", bad)
		}
	}
	id := newTraceID()
	back, err := ParseTraceID(id.String())
	if err != nil || back != id {
		t.Fatalf("round trip failed: %v %v", back, err)
	}
}

func TestContextWithSpanGraftsAcrossPools(t *testing.T) {
	// The service's flight group runs compute functions under a job
	// context that does NOT descend from the request context. The request
	// side captures its span and grafts it onto the job context.
	ring := NewRing(8)
	reqCtx := WithTracer(context.Background(), New(ring))
	reqCtx, reqSpan := Start(reqCtx, "request")

	jobCtx := context.Background() // detached, as in flightGroup.run
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx := ContextWithSpan(jobCtx, SpanFromContext(reqCtx))
		_, sp := Start(ctx, "job")
		sp.End()
	}()
	<-done
	reqSpan.End()

	recs := ring.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "job" || recs[0].ParentID == "" {
		t.Fatalf("job span not parented: %+v", recs[0])
	}
	if recs[0].TraceID != recs[1].TraceID {
		t.Fatal("job span lost the request's trace ID")
	}
}

func TestSpanEndIsIdempotentAndConcurrent(t *testing.T) {
	ring := NewRing(64)
	ctx := WithTracer(context.Background(), New(ring))
	_, sp := Start(ctx, "op")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp.SetAttr("k", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	if got := len(ring.Snapshot()); got != 1 {
		t.Fatalf("span exported %d times, want 1", got)
	}
}

func TestAttrOverwrite(t *testing.T) {
	ring := NewRing(4)
	ctx := WithTracer(context.Background(), New(ring))
	_, sp := Start(ctx, "op")
	sp.SetAttr("outcome", "miss")
	sp.SetAttr("outcome", "hit")
	sp.End()
	if got := ring.Snapshot()[0].Attrs["outcome"]; got != "hit" {
		t.Fatalf("attr = %v, want hit", got)
	}
}

func TestRingWrapAndFilter(t *testing.T) {
	ring := NewRing(4)
	tr := New(ring)
	ctx := WithTracer(context.Background(), tr)
	var last string
	for i := 0; i < 6; i++ {
		_, sp := Start(ctx, "op")
		last = sp.TraceID().String()
		sp.End()
	}
	recs := ring.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	if ring.Total() != 6 {
		t.Fatalf("total %d, want 6", ring.Total())
	}
	if got := recs[len(recs)-1].TraceID; got != last {
		t.Fatalf("newest record %s, want %s", got, last)
	}
	if got := ring.Trace(last); len(got) != 1 || got[0].TraceID != last {
		t.Fatalf("Trace filter returned %v", got)
	}
	if got := ring.Trace("does-not-exist"); len(got) != 0 {
		t.Fatalf("filter for unknown trace returned %d records", len(got))
	}
}

func TestJSONLWritesOneObjectPerLine(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithTracer(context.Background(), New(NewJSONL(&buf)))
	ctx, root := Start(ctx, "outer")
	_, inner := Start(ctx, "inner")
	inner.SetError(errors.New("deadline"))
	inner.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if rec.Name != "inner" || rec.Error != "deadline" {
		t.Fatalf("unexpected first record: %+v", rec)
	}
}

func TestTeeFansOutAndSkipsNil(t *testing.T) {
	ring := NewRing(2)
	var n int
	sink := Tee(nil, ring, SinkFunc(func(Finished) { n++ }))
	ctx := WithTracer(context.Background(), New(sink))
	_, sp := Start(ctx, "op")
	sp.End()
	if n != 1 || len(ring.Snapshot()) != 1 {
		t.Fatalf("tee delivered n=%d ring=%d", n, len(ring.Snapshot()))
	}
}

func TestLoggerStitchesTraceIDs(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithTracer(context.Background(), New(NewRing(2)))
	ctx, sp := Start(ctx, "op")
	logger.InfoContext(ctx, "hello", "k", "v")
	logger.InfoContext(context.Background(), "plain")
	sp.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["traceId"] != sp.TraceID().String() {
		t.Fatalf("traceId = %v, want %s", first["traceId"], sp.TraceID())
	}
	if first["spanId"] == nil || first["k"] != "v" {
		t.Fatalf("record missing fields: %v", first)
	}
	if strings.Contains(lines[1], "traceId") {
		t.Fatal("span-less record must not carry a traceId")
	}
}

func TestLoggerRejectsBadConfig(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestLoggerHandlerWrappersPreserveIDs(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	logger = logger.With("component", "test").WithGroup("g")
	ctx := WithTracer(context.Background(), New(NewRing(2)))
	ctx, sp := Start(ctx, "op")
	defer sp.End()
	logger.InfoContext(ctx, "msg", "k", 1)
	if out := buf.String(); !strings.Contains(out, "traceId=") || !strings.Contains(out, "component=test") {
		t.Fatalf("WithAttrs/WithGroup wrapper lost fields: %q", out)
	}
}
