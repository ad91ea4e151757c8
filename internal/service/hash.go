package service

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
)

// The cache key is a SHA-256 over a stable serialization of the
// *canonical* request, prefixed with an endpoint tag and a schema version
// so analyze and sweep keys can never collide and a wire-format change
// invalidates old entries. Canonicalization (api.go) has already sorted
// streams to RM order, resolved the fault spec to its normal form, and
// collapsed -0 to +0; the serialization below finishes the job by
// rendering every float through strconv's shortest round-trip form, so
// "100", "100.0" and "1e2" — which decode to the same float64 — key
// identically.

const keySchema = "ringsched/v1"

// maxPooledBuf caps the buffers the service pools (key serializations,
// encoders, request bodies): a bigger one is dropped after use rather than
// kept alive for every later request.
const maxPooledBuf = 1 << 20

// hasher accumulates the canonical serialization in a pooled buffer with
// strconv's Append functions, so a key costs one allocation (the hex
// string) however many streams it covers.
type hasher struct {
	b []byte
}

var hasherPool = sync.Pool{New: func() any { return &hasher{b: make([]byte, 0, 1024)} }}

func newHasher(endpoint string) *hasher {
	h := hasherPool.Get().(*hasher)
	h.b = append(h.b[:0], keySchema...)
	h.b = append(h.b, '/')
	h.b = append(h.b, endpoint...)
	return h
}

// field starts one named field; names are fixed literals, and the typed
// helpers below append the escaped value.
func (h *hasher) field(name string) {
	h.b = append(h.b, '|')
	h.b = append(h.b, name...)
	h.b = append(h.b, '=')
}

func (h *hasher) str(name, v string) {
	h.field(name)
	h.b = strconv.AppendQuote(h.b, v)
}

func (h *hasher) float(name string, v float64) {
	h.field(name)
	h.b = strconv.AppendFloat(h.b, canonFloat(v), 'g', -1, 64)
}

func (h *hasher) int(name string, v int64) {
	h.field(name)
	h.b = strconv.AppendInt(h.b, v, 10)
}

func (h *hasher) bool(name string, v bool) {
	h.field(name)
	h.b = strconv.AppendBool(h.b, v)
}

func (h *hasher) strs(name string, vs []string) {
	h.field(name)
	for i, v := range vs {
		if i > 0 {
			h.b = append(h.b, ',')
		}
		h.b = strconv.AppendQuote(h.b, v)
	}
}

func (h *hasher) floats(name string, vs []float64) {
	h.field(name)
	for i, v := range vs {
		if i > 0 {
			h.b = append(h.b, ',')
		}
		h.b = strconv.AppendFloat(h.b, canonFloat(v), 'g', -1, 64)
	}
}

// sum returns the hex SHA-256 of the serialization and gives the buffer
// back to the pool; the hasher must not be used afterwards.
func (h *hasher) sum() string {
	sum := sha256.Sum256(h.b)
	if cap(h.b) <= maxPooledBuf {
		hasherPool.Put(h)
	}
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// CacheKey returns the canonical cache key of the request. The receiver
// must already be canonical (see Canonicalize); the server and CLIs only
// hash canonicalized requests.
func (r AnalyzeRequest) CacheKey() string {
	h := newHasher("analyze")
	h.strs("protocols", r.Protocols)
	h.float("bw", r.BandwidthMbps)
	h.str("fault", r.FaultModel)
	h.bool("detail", r.Detail)
	h.floats("scales", r.PayloadScales)
	for _, s := range r.Streams {
		h.str("s.name", s.Name)
		h.float("s.period", s.PeriodMs)
		h.float("s.bits", s.LengthBits)
	}
	return h.sum()
}

// CacheKey returns the canonical cache key of the request. The receiver
// must already be canonical (see Canonicalize).
func (r SweepRequest) CacheKey() string {
	h := newHasher("sweep")
	h.strs("protocols", r.Protocols)
	h.floats("bw", r.BandwidthsMbps)
	h.int("streams", int64(r.Streams))
	h.float("meanPeriod", r.MeanPeriodMs)
	h.float("periodRatio", r.PeriodRatio)
	h.int("samples", int64(r.Samples))
	h.int("seed", r.Seed)
	return h.sum()
}
