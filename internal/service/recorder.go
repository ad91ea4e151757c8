package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ringsched/internal/promtext"
)

// The request flight recorder: a bounded, lock-sharded ring buffer of
// per-request digests behind /debug/requests. Where a span ring answers
// "what happened inside request X", the recorder answers "which requests
// happened" — slow ones, errored ones, per endpoint — each row carrying
// the trace ID that unlocks the full federated trace. It also feeds the
// ringschedd_slo_* burn-rate counters and the latency-histogram
// exemplars, so an alerting pipeline lands on a trace ID in two hops.

// RequestRecord is one request digest.
type RequestRecord struct {
	Time     time.Time `json:"time"`
	Method   string    `json:"method"`
	Endpoint string    `json:"endpoint"`
	// Key is the canonical cache key, when the request reached the
	// cached path ("" otherwise). Two rows with equal keys asked for the
	// same computation, whatever their wire bodies looked like.
	Key  string `json:"key,omitempty"`
	Code int    `json:"code"`
	// Cache is the X-Cache disposition: hit, coalesced, peer, miss, or
	// "" for endpoints outside the cached path.
	Cache     string  `json:"cache,omitempty"`
	LatencyMs float64 `json:"latencyMs"`
	TraceID   string  `json:"traceId"`
}

// digestCtxKey carries the mutable per-request digest through the
// handler chain: instrument allocates it with the request's rendered
// trace ID, serveCached fills in the canonical key.
type digestCtxKey struct{}

type requestDigest struct {
	key string
	// traceID holds the rendered trace ID as the X-Ringsched-Trace
	// header value slice (len == cap, so an Add cannot write into it).
	traceID [1]string
}

func withDigest(ctx context.Context, traceID string) (context.Context, *requestDigest) {
	d := &requestDigest{traceID: [1]string{traceID}}
	return context.WithValue(ctx, digestCtxKey{}, d), d
}

// setDigestKey records the canonical cache key on the request digest, if
// the request is being recorded.
func setDigestKey(ctx context.Context, key string) {
	if d, ok := ctx.Value(digestCtxKey{}).(*requestDigest); ok {
		d.key = key
	}
}

const recorderShards = 16

type recorderShard struct {
	mu   sync.Mutex
	buf  []RequestRecord // oldest first until it holds the shard's share
	next int             // the oldest slot once the shard is full
}

// recorder is the sharded ring buffer. Records land in the shard picked
// by their trace ID, so concurrent requests contend on different locks
// while one request's retries stay colocated. Each shard grows with use,
// by doubling, up to its share of the capacity, so a server that records
// little holds little.
type recorder struct {
	shards [recorderShards]recorderShard
	per    int // each shard's share of the capacity
	total  atomic.Uint64
}

func newRecorder(capacity int) *recorder {
	return &recorder{per: (max(capacity, recorderShards) + recorderShards - 1) / recorderShards}
}

// fnv1a hashes a string without allocating (hash/fnv's interface forces
// a []byte conversion; the record path budget is ≤1 alloc).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Record stores one digest.
func (r *recorder) Record(rec RequestRecord) {
	sh := &r.shards[fnv1a(rec.TraceID)%recorderShards]
	sh.mu.Lock()
	switch {
	case len(sh.buf) < cap(sh.buf):
		sh.buf = append(sh.buf, rec)
	case len(sh.buf) < r.per:
		grown := make([]RequestRecord, len(sh.buf), min(max(2*len(sh.buf), 16), r.per))
		copy(grown, sh.buf)
		sh.buf = append(grown, rec)
	default:
		sh.buf[sh.next] = rec
		sh.next = (sh.next + 1) % r.per
	}
	sh.mu.Unlock()
	r.total.Add(1)
}

// Total counts records ever stored.
func (r *recorder) Total() uint64 { return r.total.Load() }

// Snapshot returns the retained records ordered newest first (the order
// an operator debugging "what just happened" wants).
func (r *recorder) Snapshot() []RequestRecord {
	var out []RequestRecord
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.buf[sh.next:]...)
		out = append(out, sh.buf[:sh.next]...)
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.After(out[j].Time) })
	return out
}

// requestsQuery is the /debug/requests filter set.
type requestsQuery struct {
	minLatency time.Duration // 0 = no latency floor
	errorsOnly bool          // code >= 400
	endpoint   string
	limit      int
}

func (q requestsQuery) match(rec RequestRecord) bool {
	if q.minLatency > 0 && rec.LatencyMs < float64(q.minLatency)/float64(time.Millisecond) {
		return false
	}
	if q.errorsOnly && rec.Code < 400 {
		return false
	}
	if q.endpoint != "" && rec.Endpoint != q.endpoint {
		return false
	}
	return true
}

// handleRequests serves GET /debug/requests with ?slow= (minimum
// latency in ms; a bare "slow" uses the configured SLO threshold),
// ?errors=1, ?endpoint=, and ?limit= filters.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	params := r.URL.Query()
	q := requestsQuery{endpoint: params.Get("endpoint"), limit: 100}
	fail := func(msg string) {
		w.WriteHeader(http.StatusBadRequest)
		out, _ := json.Marshal(map[string]string{"error": msg, "code": "bad_request"})
		w.Write(append(out, '\n'))
	}
	if _, ok := params["slow"]; ok {
		raw := params.Get("slow")
		if raw == "" {
			q.minLatency = s.cfg.SlowThreshold
		} else {
			ms, err := strconv.ParseFloat(raw, 64)
			if err != nil || ms < 0 {
				fail("bad slow: want a non-negative number of milliseconds")
				return
			}
			q.minLatency = time.Duration(ms * float64(time.Millisecond))
		}
	}
	if raw := params.Get("errors"); raw != "" && raw != "0" && raw != "false" {
		q.errorsOnly = true
	}
	if raw := params.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			fail("bad limit: want a non-negative integer")
			return
		}
		q.limit = n
	}

	all := s.recorder.Snapshot()
	matched := make([]RequestRecord, 0, len(all))
	for _, rec := range all {
		if q.match(rec) {
			matched = append(matched, rec)
		}
	}
	if q.limit > 0 && len(matched) > q.limit {
		matched = matched[:q.limit]
	}
	out, err := json.Marshal(map[string]any{
		"total":    s.recorder.Total(),
		"retained": len(matched),
		"requests": matched,
	})
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		body, _ := json.Marshal(map[string]string{"error": err.Error(), "code": "internal"})
		w.Write(append(body, '\n'))
		return
	}
	w.Write(append(out, '\n'))
}

// sloClass buckets one finished request for the burn-rate counters:
// error (5xx), slow (over the threshold), or good. 4xx is "good" — the
// server answered correctly; client mistakes must not burn the budget.
func sloClass(code int, elapsed, slowThreshold time.Duration) string {
	switch {
	case code >= 500:
		return "error"
	case elapsed > slowThreshold:
		return "slow"
	default:
		return "good"
	}
}

// exemplarKey identifies one (endpoint, histogram bucket) cell.
type exemplarKey struct {
	endpoint string
	bucket   int // index into promtext.LatencyBuckets; len() = +Inf
}

type exemplar struct {
	traceID string
	seconds float64
}

// exemplarVec keeps the most recent trace exemplar per latency bucket.
// The text exposition format (0.0.4) has no native exemplar syntax —
// that's OpenMetrics — so Write renders them as a sibling gauge family
// (<name>_exemplars{endpoint, le, traceId} = seconds), which any
// text-format scraper accepts and an operator can join by le.
type exemplarVec struct {
	name, help string
	mu         sync.Mutex
	cells      map[exemplarKey]exemplar
}

func newExemplarVec(name, help string) *exemplarVec {
	return &exemplarVec{name: name, help: help, cells: map[exemplarKey]exemplar{}}
}

// Observe files one sample into its bucket cell, last write wins.
func (e *exemplarVec) Observe(endpoint, traceID string, seconds float64) {
	bucket := len(promtext.LatencyBuckets)
	for i, le := range promtext.LatencyBuckets {
		if seconds <= le {
			bucket = i
			break
		}
	}
	e.mu.Lock()
	e.cells[exemplarKey{endpoint, bucket}] = exemplar{traceID, seconds}
	e.mu.Unlock()
}

// Write renders the exemplar gauge family.
func (e *exemplarVec) Write(w io.Writer) {
	e.mu.Lock()
	keys := make([]exemplarKey, 0, len(e.cells))
	for k := range e.cells {
		keys = append(keys, k)
	}
	e.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].bucket < keys[j].bucket
	})
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", e.name, promtext.EscapeHelp(e.help), e.name)
	for _, k := range keys {
		e.mu.Lock()
		cell, ok := e.cells[k]
		e.mu.Unlock()
		if !ok {
			continue
		}
		le := "+Inf"
		if k.bucket < len(promtext.LatencyBuckets) {
			le = strconv.FormatFloat(promtext.LatencyBuckets[k.bucket], 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s%s %s\n", e.name,
			promtext.Labels("endpoint", k.endpoint, "le", le, "traceId", cell.traceID),
			promtext.FormatSample(cell.seconds))
	}
}
