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
	if aliasOf("topology", []byte(analyzeBody)) == a || aliasOf("analyze", []byte(analyzeBody+" ")) == a {
		t.Error("alias digest ignores the endpoint or a byte of the body")
	}
}

// TestOversizedBodyDecodesAsAStream: a body past maxBodyBytes (leading
// whitespace here, so the JSON value sits beyond the buffered prefix)
// still decodes and serves, gets no alias, and repeats as a canonical hit.
func TestOversizedBodyDecodesAsAStream(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	body := strings.Repeat(" ", maxBodyBytes) + analyzeBody
	for i, want := range []string{"miss", "hit"} {
		w := serve(s.Handler(), "/v1/analyze", body)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != want {
			t.Fatalf("send %d: %d X-Cache %q, want 200 %s", i, w.Code, w.Header().Get("X-Cache"), want)
		}
		if spanByName(s.spans.Trace(w.Header().Get("X-Ringsched-Trace")), "decode") == nil {
			t.Errorf("send %d skipped decode", i)
		}
	}
	if n := s.cache.Entries(); n != 1 {
		t.Errorf("%d cache entries, want the result alone (no alias)", n)
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
