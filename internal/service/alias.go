package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ringsched/internal/resilience"
	"ringsched/internal/trace"
	"ringsched/internal/wire"
)

// The alias answers a repeated request body without decoding it. It maps
// one endpoint's exact body bytes to the canonical cache key the body
// canonicalized to, and lives in the result cache itself: alias entries
// share the byte budget and the LRU with result bodies, charged their
// real size, so an alias too large for a shard is not stored and its
// body is keyed the slow way each time. It is exact because the map
// compares every byte of the key, and because decode, Canonicalize and
// CacheKey are pure functions of the bytes, so the same bytes always
// reach the same key. A served body's alias is recorded once its result
// is resident, so a body that fails never gets one.

// aliasOf returns endpoint's alias key for body, body ‖ 0x00 ‖ endpoint,
// appended to body in place (the array grows only when it lacks room). No
// canonical key holds a zero byte, so no alias key equals one, and no
// endpoint holds one either, so the last zero byte splits a key back into
// its body and endpoint: distinct pairs never share a key.
func aliasOf(endpoint string, body []byte) []byte {
	return append(append(body, 0), endpoint...)
}

// putAlias records that alias key a keys to key. Recording is the one
// place the key is copied out of the buffer it lies in.
func (c *Cache) putAlias(a []byte, key string) {
	c.put(&cacheEntry{key: string(a), target: key})
}

// recordAlias is putAlias for a served request: it records a only while
// key's result body is resident. The alias of a body whose computation
// failed, or whose result was too large to cache, would hold the body's
// bytes in the budget and answer nothing. A nil a (a body that was not
// read whole, or a door that does not alias) records nothing.
func (c *Cache) recordAlias(a []byte, key string) {
	if a == nil {
		return
	}
	if _, ok := c.lookup(key); ok {
		c.putAlias(a, key)
	}
}

// resolveAlias returns the canonical key recorded for a, uncounted.
func (c *Cache) resolveAlias(a []byte) (string, bool) {
	e, ok := c.entryBytes(a)
	if !ok {
		return "", false
	}
	return e.target, true
}

// aliasHit returns the canonical key and cached body of a's target when
// both are resident, counting one hit. Otherwise it counts nothing: the
// request falls through to the canonical lookup, which counts it once.
func (c *Cache) aliasHit(a []byte) (key string, body []byte, ok bool) {
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
	// Tag a pooled copy: body belongs to the caller.
	buf := bodyPool.Get().(*[]byte)
	defer ReleaseBody(buf)
	*buf = aliasOf(endpoint, append((*buf)[:0], body...))
	a := *buf
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
	if _, err := unmarshalStrict(body, &req); err != nil {
		return "", err
	}
	canon, err := req.Canonicalize()
	if err != nil {
		return "", err
	}
	return canon.CacheKey(), nil
}

// MaxBodyBytes is how much of a request body the server reads. A longer
// body is refused with errBodyTooLarge, a typed 413, at every door:
// ringsched-lb reads with ReadBody too, and refuses it before forwarding.
const MaxBodyBytes = 8 << 20

var errBodyTooLarge = resilience.Errorf(resilience.CodeBadRequest, http.StatusRequestEntityTooLarge,
	"service: request body exceeds %d bytes", MaxBodyBytes)

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// ReadBody reads body into a pooled buffer until EOF, refusing a body
// past MaxBodyBytes with errBodyTooLarge and a failed read with a 400
// (StatusFor gives each error's status). The buffer grows with what
// arrives, never with a declared Content-Length a client could inflate.
// The caller releases buf with ReleaseBody, after an error too, and only
// once nothing reads the body any more.
func ReadBody(body io.Reader) (buf *[]byte, err error) {
	buf = bodyPool.Get().(*[]byte)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, rerr := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*buf = b
		switch {
		case len(b) > MaxBodyBytes:
			return buf, errBodyTooLarge
		case rerr == io.EOF:
			return buf, nil
		case rerr != nil:
			return buf, fmt.Errorf("%w: %v", ErrBadRequest, rerr)
		}
	}
}

// ReleaseBody returns a buffer from ReadBody to the pool.
func ReleaseBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		*buf = (*buf)[:0]
		bodyPool.Put(buf)
	}
}

// decodeCacheable is the front of every cacheable endpoint: it reads the
// body once, answers a body seen before straight from the alias as
// X-Cache: hit, and otherwise decodes it into a T under a "decode" span,
// whose decoder attribute names what ran: "scan" (scanAnalyze) or "json"
// (encoding/json). aliased false (an SSE sweep) skips the alias. ok false
// means the response is written: an alias hit, a 400 or a 413. buf holds
// the body until the caller releases it with ReleaseBody, after the
// request is served: alias, the body's alias key to record then (nil when
// there is none), lies in buf's array.
func decodeCacheable[T any](s *Server, w http.ResponseWriter, r *http.Request, endpoint string, aliased bool) (req T, buf *[]byte, alias []byte, ok bool) {
	buf, err := ReadBody(r.Body)
	if err != nil {
		WriteError(w, StatusFor(err), err)
		return req, buf, nil, false
	}
	if aliased {
		n := len(*buf)
		alias = aliasOf(endpoint, *buf)
		*buf = alias[:n] // the pool keeps the array if the tag grew it
		sp := trace.StartLeaf(r.Context(), "cache.lookup")
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
			return req, buf, nil, false
		}
	}
	dsp := trace.StartLeaf(r.Context(), "decode")
	scanned, err := unmarshalStrict(*buf, &req)
	if scanned {
		dsp.SetAttr("decoder", "scan")
	} else {
		dsp.SetAttr("decoder", "json")
	}
	dsp.SetError(err)
	dsp.End()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return req, buf, nil, false
	}
	return req, buf, alias, true
}

// decodeBody is the front of every other door that takes a body: it reads
// r's body with ReadBody and decodes it into v with unmarshalStrict. A
// refused body's error carries its status for StatusFor.
func decodeBody(r *http.Request, v any) error {
	buf, err := ReadBody(r.Body)
	defer ReleaseBody(buf)
	if err != nil {
		return err
	}
	_, err = unmarshalStrict(*buf, v)
	return err
}

// unmarshalStrict is decodeFrom's twin for a body held whole in memory,
// and the one decoder behind Cache.KeyOf and every request body the
// server reads (ReadBody holds each whole). It decodes into a zero v
// exactly as decodeFrom does: an analyze body inside scanAnalyze's
// grammar or a ring edit body inside scanRingEdit's is scanned, and every
// other input goes through encoding/json. scanned reports which of the
// two ran.
func unmarshalStrict(raw []byte, v any) (scanned bool, err error) {
	switch req := v.(type) {
	case *AnalyzeRequest:
		*req, scanned = scanAnalyze(raw)
	case *wire.RingEditRequest:
		*req, scanned = scanRingEdit(raw)
	}
	if scanned {
		return true, nil
	}
	return false, decodeFrom(bytes.NewReader(raw), v)
}

// prepare canonicalizes a decoded request and keys it, under the
// "canonicalize" and "key" spans. ok false means the 400 is written.
func prepare[T canonical[T]](s *Server, w http.ResponseWriter, r *http.Request, req T) (canon T, key string, ok bool) {
	csp := trace.StartLeaf(r.Context(), "canonicalize")
	canon, err := req.Canonicalize()
	csp.SetError(err)
	csp.End()
	if err != nil {
		WriteError(w, StatusFor(err), err)
		return canon, "", false
	}
	ksp := trace.StartLeaf(r.Context(), "key")
	key = canon.CacheKey()
	ksp.End()
	return canon, key, true
}
