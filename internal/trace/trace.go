// Package trace is a zero-dependency span tracer for following one unit of
// work — an HTTP request, a CLI invocation, a simulator run — through the
// layered machinery of this repo: handler → canonicalize → cache →
// flight-group → kernel/simulator → encode.
//
// Design constraints, in order:
//
//  1. Free when disabled. Start returns a nil *Span (and the unchanged
//     context) when no Tracer is installed, and every Span method is
//     nil-safe, so hot paths carry tracing calls without branches or
//     allocations. The kernel benchmarks pin this at 0 allocs/op.
//  2. Cheap when enabled. A span keeps its IDs raw and its attributes in
//     an inline array; End hands sinks a Finished value, and hex IDs and
//     the attribute map (the Record form) are rendered only where spans
//     are read: /debug/traces, federation and the JSONL file sink.
//  3. Safe under worker pools. Spans are identified by value IDs, carry
//     their own mutex, and parentage flows through context.Context, so a
//     span started on one goroutine may be annotated and ended on another
//     (the service's coalescing flight group does exactly this).
//  4. No dependencies. IDs come from math/rand/v2, export is JSON lines or
//     an in-memory ring; there is no OpenTelemetry and never will be here.
package trace

import (
	"context"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID identifies one end-to-end unit of work (one request, one run).
// The zero value is invalid and means "assign a fresh random ID".
type TraceID [16]byte

// SpanID identifies one span within a trace. The zero value is invalid.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [2 * len(id)]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// ErrBadTraceID is returned by ParseTraceID for malformed input.
var ErrBadTraceID = errors.New("trace: malformed trace id")

// ParseTraceID decodes a 32-hex-digit trace ID, as carried by the
// X-Ringsched-Trace header. Empty input yields the zero ID and no error,
// so callers can pass an absent header straight through.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if s == "" {
		return id, nil
	}
	if len(s) != 2*len(id) {
		return TraceID{}, ErrBadTraceID
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, ErrBadTraceID
	}
	if id.IsZero() {
		return TraceID{}, ErrBadTraceID
	}
	return id, nil
}

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := range 8 {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := rand.Uint64()
		for i := range id {
			id[i] = byte(v >> (8 * i))
		}
	}
	return id
}

// Attr is one key/value annotation on a span. Values should be simple
// scalars (string, bool, int, float64); they are exported via encoding/json.
type Attr struct {
	Key   string
	Value any
}

// inlineAttrs is how many attributes a span holds without allocating: as
// many as the largest production span sets (http.*: method, code,
// coalesced, badTraceHeader, deadlineMs, peerHop, and shed or aborted,
// which never meet). More spill into an overflow slice.
const inlineAttrs = 7

// Finished is a span as End exports it: raw IDs, timing, error and
// attributes, with nothing rendered. Sinks receive it by value; Record
// renders the JSON form when a reader asks for it.
type Finished struct {
	TraceID  TraceID
	SpanID   SpanID
	ParentID SpanID // zero for a root span
	Name     string
	Start    time.Time
	Duration time.Duration
	Error    string

	attrs  [inlineAttrs]Attr
	nattrs int
	more   []Attr
}

// setAttr attaches or overwrites one annotation.
func (f *Finished) setAttr(key string, value any) {
	for i := range f.attrs[:f.nattrs] {
		if f.attrs[i].Key == key {
			f.attrs[i].Value = value
			return
		}
	}
	for i := range f.more {
		if f.more[i].Key == key {
			f.more[i].Value = value
			return
		}
	}
	if f.nattrs < len(f.attrs) {
		f.attrs[f.nattrs] = Attr{Key: key, Value: value}
		f.nattrs++
		return
	}
	f.more = append(f.more, Attr{Key: key, Value: value})
}

// DurationUS is the span's duration in microseconds, as Record reports
// it.
func (f *Finished) DurationUS() float64 {
	return float64(f.Duration) / float64(time.Microsecond)
}

// Record renders the span's exported JSON form: hex IDs (no parent ID on
// a root) and the attributes as a map.
func (f *Finished) Record() Record {
	rec := Record{
		TraceID:    f.TraceID.String(),
		SpanID:     f.SpanID.String(),
		Name:       f.Name,
		Start:      f.Start,
		DurationUS: f.DurationUS(),
		Error:      f.Error,
	}
	if !f.ParentID.IsZero() {
		rec.ParentID = f.ParentID.String()
	}
	if n := f.nattrs + len(f.more); n > 0 {
		rec.Attrs = make(map[string]any, n)
		for _, a := range f.attrs[:f.nattrs] {
			rec.Attrs[a.Key] = a.Value
		}
		for _, a := range f.more {
			rec.Attrs[a.Key] = a.Value
		}
	}
	return rec
}

// Span is one timed operation. A nil *Span is a valid, inert span: all
// methods are no-ops, so call sites never need to test for enabled tracing.
type Span struct {
	tracer *Tracer

	mu    sync.Mutex
	ended bool
	fin   Finished // IDs, name and start are fixed at creation
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.fin.TraceID
}

// Name returns the span's operation name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.fin.Name
}

// SetAttr attaches or overwrites one annotation. Safe on a nil span and
// safe to call from a goroutine other than the one that started the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.fin.setAttr(key, value)
	}
}

// SetError records err's message on the span. nil err and nil span are
// no-ops.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.fin.Error = err.Error()
	}
}

// End closes the span and exports it to the tracer's sink. Only the first
// End has any effect; later calls (and calls on a nil span) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.fin.Duration = end.Sub(s.fin.Start)
	s.mu.Unlock()
	// Nothing writes s.fin once ended is set.
	s.tracer.sink.Export(s.fin)
}

// Duration returns how long the span has been open (or ran, once ended).
// It exists for log records that want the elapsed time without ending the
// span; a nil span reports zero.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.fin.Start)
}

// Tracer creates spans and routes finished spans to a Sink. A nil *Tracer
// is valid and creates only nil spans.
type Tracer struct {
	sink Sink
}

// New returns a Tracer exporting to sink. A nil sink discards everything.
func New(sink Sink) *Tracer {
	if sink == nil {
		sink = SinkFunc(func(Finished) {})
	}
	return &Tracer{sink: sink}
}

func (t *Tracer) newSpan(name string, traceID TraceID, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	if traceID.IsZero() {
		traceID = newTraceID()
	}
	return &Span{tracer: t, fin: Finished{
		TraceID:  traceID,
		SpanID:   newSpanID(),
		ParentID: parent,
		Name:     name,
		Start:    time.Now(),
	}}
}

// StartRoot begins a new root span under t, ignoring any current span in
// ctx; see the package-level StartRoot. A server that owns its tracer
// starts request roots here, so ctx needs no tracer value. A nil t
// returns (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, name string, traceID TraceID) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.newSpan(name, traceID, SpanID{})
	return context.WithValue(ctx, spanKey, sp), sp
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer installs tr as the context's tracer. Spans started from the
// returned context (and its descendants) export through tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, tr)
}

// FromContext returns the installed tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// ContextWithSpan re-roots ctx under sp, so children started from the
// returned context parent to sp (and export through sp's tracer). It is
// the bridge for worker pools whose job context does not descend from the
// request context: capture the span on the request side, then graft it
// onto the job context with this.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// Start begins a span named name. If ctx carries a current span the new
// span is its child; otherwise, if ctx carries a tracer, it is a new root
// with a fresh trace ID; otherwise tracing is disabled and Start returns
// (ctx, nil) without allocating. Callers must End the returned span (nil
// End is a no-op) and should pass the returned context downward.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	sp := StartLeaf(ctx, name)
	return ContextWithSpan(ctx, sp), sp
}

// StartLeaf is Start for a span that starts no children: the same span,
// parent, IDs and record, without the context that would carry it
// downward. A leaf costs one allocation fewer than Start.
func StartLeaf(ctx context.Context, name string) *Span {
	if parent := SpanFromContext(ctx); parent != nil {
		return parent.tracer.newSpan(name, parent.fin.TraceID, parent.fin.SpanID)
	}
	return FromContext(ctx).newSpan(name, TraceID{}, SpanID{})
}

// StartRoot begins a new root span, ignoring any current span in ctx, under
// the context's tracer. A zero traceID requests a fresh random one; a
// caller-supplied ID (e.g. parsed from X-Ringsched-Trace) is adopted, which
// lets clients stitch our spans into their own traces. Returns (ctx, nil)
// when no tracer is installed.
func StartRoot(ctx context.Context, name string, traceID TraceID) (context.Context, *Span) {
	return FromContext(ctx).StartRoot(ctx, name, traceID)
}
