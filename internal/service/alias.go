package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ringsched/internal/trace"
)

// The alias answers a repeated request body without decoding it. It maps
// a digest of (endpoint, exact body bytes) to the canonical cache key the
// body canonicalized to, and lives in the result cache itself: alias
// entries share the byte budget and the LRU with result bodies. It is
// exact because decode, Canonicalize and CacheKey are pure functions of
// the bytes, so the same bytes always reach the same key. An alias is
// recorded only after its body canonicalized, so a body that fails never
// gets one.

// aliasSchema versions the alias digest the way keySchema versions keys.
const aliasSchema = "ringsched/alias/v1/"

// aliasKey is an alias digest: SHA-256 over the schema, the endpoint and
// the SHA-256 of the body. The zero value means "no alias" (a body that
// was not read whole, or a door that does not alias).
type aliasKey [sha256.Size]byte

// aliasOf digests one endpoint's body without allocating.
func aliasOf(endpoint string, body []byte) aliasKey {
	inner := sha256.Sum256(body)
	b := make([]byte, 0, 128)
	b = append(b, aliasSchema...)
	b = append(b, endpoint...)
	b = append(b, 0)
	b = append(b, inner[:]...)
	return sha256.Sum256(b)
}

// putAlias records that a's body canonicalizes to key. An alias entry's
// cache key is the raw 32-byte digest, which can never equal a 64-byte
// hex canonical key.
func (c *Cache) putAlias(a aliasKey, key string) {
	if a == (aliasKey{}) {
		return
	}
	c.put(&cacheEntry{key: string(a[:]), target: key})
}

// resolveAlias returns the canonical key recorded for a, uncounted.
func (c *Cache) resolveAlias(a aliasKey) (string, bool) {
	e, ok := c.entry(string(a[:]))
	if !ok {
		return "", false
	}
	return e.target, true
}

// aliasHit returns the canonical key and cached body of a's target when
// both are resident, counting one hit. Otherwise it counts nothing: the
// request falls through to the canonical lookup, which counts it once.
func (c *Cache) aliasHit(a aliasKey) (key string, body []byte, ok bool) {
	if key, ok = c.resolveAlias(a); !ok {
		return "", nil, false
	}
	if body, ok = c.lookup(key); !ok {
		return "", nil, false
	}
	c.hits.Add(1)
	return key, body, true
}

// KeyOf returns the canonical cache key of one endpoint's request body
// ("analyze", "sweep" or "topology"): from the alias when these exact
// bytes were keyed before, otherwise by decoding, canonicalizing and
// keying them, after which the alias is recorded. ok is false when the
// body does not decode or canonicalize. ringsched-lb routes by it.
func (c *Cache) KeyOf(endpoint string, body []byte) (key string, ok bool) {
	a := aliasOf(endpoint, body)
	if key, ok := c.resolveAlias(a); ok {
		return key, true
	}
	var err error
	switch endpoint {
	case "analyze":
		key, err = keyOf[AnalyzeRequest](body)
	case "sweep":
		key, err = keyOf[SweepRequest](body)
	case "topology":
		key, err = keyOf[TopologyRequest](body)
	default:
		return "", false
	}
	if err != nil {
		return "", false
	}
	c.putAlias(a, key)
	return key, true
}

// canonical is a cacheable request type: its canonical form keys the
// result cache.
type canonical[T any] interface {
	Canonicalize() (T, error)
	CacheKey() string
}

// keyOf decodes body as a T exactly as the server does and returns the
// key of its canonical form.
func keyOf[T canonical[T]](body []byte) (string, error) {
	var req T
	if err := unmarshalStrict(body, &req); err != nil {
		return "", err
	}
	canon, err := req.Canonicalize()
	if err != nil {
		return "", err
	}
	return canon.CacheKey(), nil
}

// MaxBodyBytes is how much of a cacheable request body the server buffers.
// A longer body is decoded as a stream, as it always was, and gets no
// alias. ringsched-lb reads the same amount to route a body and refuses a
// longer one with a 413.
const MaxBodyBytes = 8 << 20

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// readBody reads body into a pooled buffer until EOF or until it holds
// more than MaxBodyBytes; whole reports the former. The buffer grows with
// what arrives, never with a declared Content-Length a client could
// inflate.
func readBody(body io.Reader) (buf *[]byte, whole bool, err error) {
	buf = bodyPool.Get().(*[]byte)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, rerr := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		switch {
		case len(b) > MaxBodyBytes:
			*buf = b
			return buf, false, nil
		case rerr == io.EOF:
			*buf = b
			return buf, true, nil
		case rerr != nil:
			*buf = b
			return buf, false, rerr
		}
	}
}

func releaseBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		*buf = (*buf)[:0]
		bodyPool.Put(buf)
	}
}

// decodeCacheable is the front of every cacheable endpoint: it reads the
// body once, answers a body seen before straight from the alias as
// X-Cache: hit, and otherwise decodes it into a T under a "decode" span.
// aliased false (an SSE sweep) skips the alias. ok false means the
// response is written: an alias hit or a 400. The returned alias is the
// body's digest for prepare to record, zero when there is none.
func decodeCacheable[T any](s *Server, w http.ResponseWriter, r *http.Request, endpoint string, aliased bool) (req T, alias aliasKey, ok bool) {
	buf, whole, err := readBody(r.Body)
	defer releaseBody(buf)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return req, alias, false
	}
	if aliased && whole {
		alias = aliasOf(endpoint, *buf)
		_, sp := trace.Start(r.Context(), "cache.lookup")
		sp.SetAttr("alias", true)
		key, body, hit := s.cache.aliasHit(alias)
		if hit {
			sp.SetAttr("outcome", "hit")
		} else {
			sp.SetAttr("outcome", "miss")
		}
		sp.End()
		if hit {
			setDigestKey(r.Context(), key)
			writeHit(w, body)
			return req, alias, false
		}
	}
	_, dsp := trace.Start(r.Context(), "decode")
	var rd io.Reader = bytes.NewReader(*buf)
	if !whole {
		rd = io.MultiReader(rd, r.Body)
	}
	err = decodeFrom(rd, &req)
	dsp.SetError(err)
	dsp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return req, alias, false
	}
	return req, alias, true
}

// prepare canonicalizes a decoded request and keys it, under the
// "canonicalize" and "key" spans, then records the body's alias. ok false
// means the 400 is written.
func prepare[T canonical[T]](s *Server, w http.ResponseWriter, r *http.Request, req T, alias aliasKey) (canon T, key string, ok bool) {
	_, csp := trace.Start(r.Context(), "canonicalize")
	canon, err := req.Canonicalize()
	csp.SetError(err)
	csp.End()
	if err != nil {
		writeError(w, statusFor(err), err)
		return canon, "", false
	}
	_, ksp := trace.Start(r.Context(), "key")
	key = canon.CacheKey()
	ksp.End()
	s.cache.putAlias(alias, key)
	return canon, key, true
}
