package service

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestAliasCountsEachRequestOnce walks one body per cacheable endpoint
// through miss, alias hit, and a reformatted body (alias miss, canonical
// hit), checking X-Cache, the spans and that the hit and miss counters
// move once per request: alias lookups themselves are uncounted.
func TestAliasCountsEachRequestOnce(t *testing.T) {
	for _, tc := range []struct{ endpoint, path, body string }{
		{"analyze", "/v1/analyze", analyzeBody},
		{"topology", "/v1/topology/analyze", `{"topology":"` + lineTopologySpec + `"}`},
		{"sweep", "/v1/sweep", smallSweepBody},
	} {
		s := New(Config{})
		h := s.Handler()
		reformatted := "\n" + tc.body + " "
		steps := []struct {
			body, xcache string
			alias        bool // served by the alias: no decode span
			hits, misses int64
		}{
			{tc.body, "miss", false, 0, 1},
			{tc.body, "hit", true, 1, 1},
			{reformatted, "hit", false, 2, 1},
			{reformatted, "hit", true, 3, 1},
		}
		var first []byte
		for i, st := range steps {
			w := serve(h, tc.path, st.body)
			if w.Code != http.StatusOK || w.Header().Get("X-Cache") != st.xcache {
				t.Fatalf("%s step %d: %d X-Cache %q, want 200 %s", tc.endpoint, i, w.Code, w.Header().Get("X-Cache"), st.xcache)
			}
			if i == 0 {
				first = w.Body.Bytes()
			} else if !bytes.Equal(w.Body.Bytes(), first) {
				t.Errorf("%s step %d: body differs from the first response", tc.endpoint, i)
			}
			if s.cache.Hits() != st.hits || s.cache.Misses() != st.misses {
				t.Errorf("%s step %d: hits %d misses %d, want %d and %d",
					tc.endpoint, i, s.cache.Hits(), s.cache.Misses(), st.hits, st.misses)
			}
			spans := s.spans.Trace(w.Header().Get("X-Ringsched-Trace"))
			if decoded := spanByName(spans, "decode") != nil; decoded == st.alias {
				t.Errorf("%s step %d: decode span present %v, want %v", tc.endpoint, i, decoded, !st.alias)
			}
			if st.alias {
				if sp := spanByName(spans, "cache.lookup"); sp == nil || sp.Attrs["alias"] != true || sp.Attrs["outcome"] != "hit" {
					t.Errorf("%s step %d: cache.lookup span %+v, want an alias hit", tc.endpoint, i, sp)
				}
			} else if spanByName(spans, "key") == nil {
				t.Errorf("%s step %d: slow path without a key span", tc.endpoint, i)
			}
		}
		s.Close()
	}
}

// TestAliasWithEvictedTargetCountsNothing: an alias whose target body is
// gone is not a hit, and counts nothing, so the canonical lookup that
// follows counts the request once.
func TestAliasWithEvictedTargetCountsNothing(t *testing.T) {
	c := NewCache(1 << 20)
	a := aliasOf("analyze", []byte(analyzeBody))
	c.putAlias(a, "k")
	if _, _, ok := c.aliasHit(a); ok {
		t.Error("alias hit without a resident target")
	}
	c.Put("k", []byte("body"))
	if key, body, ok := c.aliasHit(a); !ok || key != "k" || string(body) != "body" {
		t.Errorf("aliasHit = %q %q %v", key, body, ok)
	}
	if c.Hits() != 1 || c.Misses() != 0 {
		t.Errorf("hits %d misses %d, want 1 and 0", c.Hits(), c.Misses())
	}
	if bytes.Equal(aliasOf("topology", []byte(analyzeBody)), a) || bytes.Equal(aliasOf("analyze", []byte(analyzeBody+" ")), a) {
		t.Error("alias key ignores the endpoint or a byte of the body")
	}
}

// TestOversizedBodyIsRefused: a body one byte past MaxBodyBytes (leading
// whitespace, so the JSON value lies past the cap) gets ringsched-lb's
// typed 413 at every door that takes a body, and leaves no cache entry
// and no ring; the same body padded to exactly MaxBodyBytes is read.
func TestOversizedBodyIsRefused(t *testing.T) {
	for _, tc := range []struct {
		path, body string
		atCap      int // the status of the body padded to MaxBodyBytes
	}{
		{"/v1/analyze", analyzeBody, http.StatusOK},
		{"/v1/sweep", smallSweepBody, http.StatusOK},
		{"/v1/topology/analyze", `{"topology":"` + lineTopologySpec + `"}`, http.StatusOK},
		{"/v1/rings", ringCreateBody, http.StatusCreated},
		{"/v1/experiments", `{"ids": ["NO-SUCH-EXPERIMENT"]}`, http.StatusBadRequest},
	} {
		s := New(Config{})
		pad := strings.Repeat(" ", MaxBodyBytes-len(tc.body))
		w := serve(s.Handler(), tc.path, pad+" "+tc.body)
		if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), `"code":"bad_request"`) {
			t.Errorf("%s: %d %s, want 413 bad_request", tc.path, w.Code, w.Body)
		}
		if n, rings := s.cache.Entries(), len(s.rings.List()); n != 0 || rings != 0 {
			t.Errorf("%s: %d cache entries and %d rings after a refused body, want none", tc.path, n, rings)
		}
		if w := serve(s.Handler(), tc.path, pad+tc.body); w.Code != tc.atCap {
			t.Errorf("%s: a body of exactly MaxBodyBytes answered %d %s, want %d", tc.path, w.Code, w.Body, tc.atCap)
		}
		s.Close()
	}
}

// TestAliasConcurrentAccess drives KeyOf, putAlias and aliasHit from
// several goroutines over shared bodies (run it under -race).
func TestAliasConcurrentAccess(t *testing.T) {
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				body := []byte(fmt.Sprintf(`{"bandwidthMbps":%d,"streams":[{"periodMs":10,"lengthBits":4096}]}`, 1+i%16))
				key, ok := c.KeyOf("analyze", body)
				if !ok {
					t.Errorf("goroutine %d: body %d did not key", g, i)
					return
				}
				c.Put(key, body)
				a := aliasOf("analyze", body)
				if got, resp, ok := c.aliasHit(a); !ok || got != key || !bytes.Equal(resp, body) {
					t.Errorf("goroutine %d: aliasHit = %q %v, want %q", g, got, ok, key)
				}
				c.putAlias(a, key)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Entries(); n != 32 {
		t.Errorf("%d entries, want 16 results and 16 aliases", n)
	}
}

// aliasEndpoints are the endpoints KeyOf keys.
var aliasEndpoints = [...]string{"analyze", "sweep", "topology"}

// slowKey keys body the way KeyOf does without an alias.
func slowKey(endpoint string, body []byte) (string, error) {
	switch endpoint {
	case "analyze":
		return keyOf[AnalyzeRequest](body)
	case "sweep":
		return keyOf[SweepRequest](body)
	default:
		return keyOf[TopologyRequest](body)
	}
}

// FuzzAliasExact holds the alias to what makes it exact. An alias
// recorded for one (endpoint, body) pair resolves for another pair only
// when the endpoint and every byte match. The key KeyOf takes from the
// alias is the key the slow path gives the same bytes, and a body that
// does not key gets no alias. No alias key equals a canonical key, so an
// alias and the result it points at are two entries.
func FuzzAliasExact(f *testing.F) {
	bodies := []string{analyzeBody, smallSweepBody, `{"topology":"` + lineTopologySpec + `"}`}
	for i, b := range bodies {
		f.Add(uint8(i), b, uint8(i), b)
		f.Add(uint8(i), b, uint8(i), b+" ")
		f.Add(uint8(i), b, uint8(i+1), b)
	}
	f.Add(uint8(0), "a\x00analyze", uint8(0), "a")
	f.Add(uint8(0), "{", uint8(0), "{}")
	f.Fuzz(func(t *testing.T, ea uint8, a string, eb uint8, b string) {
		epA, epB := aliasEndpoints[int(ea)%len(aliasEndpoints)], aliasEndpoints[int(eb)%len(aliasEndpoints)]
		// Shards of 4 MiB: every fuzzed body fits, so a miss is a mismatch.
		c := NewCache(64 << 20)
		c.putAlias(aliasOf(epA, []byte(a)), "target")
		if _, ok := c.resolveAlias(aliasOf(epB, []byte(b))); ok != (epA == epB && a == b) {
			t.Fatalf("alias of (%s, %q) resolved %v for (%s, %q)", epA, a, ok, epB, b)
		}

		for _, p := range [...]struct{ endpoint, body string }{{epA, a}, {epB, b}} {
			c := NewCache(64 << 20)
			want, err := slowKey(p.endpoint, []byte(p.body))
			for round := 0; round < 2; round++ {
				key, ok := c.KeyOf(p.endpoint, []byte(p.body))
				if ok != (err == nil) || key != want {
					t.Fatalf("%s %q round %d: KeyOf = %q %v, slow path %q %v", p.endpoint, p.body, round, key, ok, want, err)
				}
			}
			if err != nil {
				if n := c.Entries(); n != 0 {
					t.Fatalf("%s %q does not key but left %d entries", p.endpoint, p.body, n)
				}
				continue
			}
			alias := aliasOf(p.endpoint, []byte(p.body))
			if string(alias) == want || strings.IndexByte(want, 0) >= 0 {
				t.Fatalf("%s %q: alias key can equal the canonical key %q", p.endpoint, p.body, want)
			}
			c.Put(want, []byte("result"))
			if key, body, ok := c.aliasHit(alias); !ok || key != want || string(body) != "result" || c.Entries() != 2 {
				t.Fatalf("%s %q: aliasHit = %q %q %v with %d entries, want the result and its alias",
					p.endpoint, p.body, key, body, ok, c.Entries())
			}
		}
	})
}
