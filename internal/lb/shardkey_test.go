package lb

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"ringsched/internal/message"
	"ringsched/internal/ring"
	"ringsched/internal/service"
)

// shardKeyBodies returns n distinct 55-stream /v1/analyze bodies: one
// paper-generator set at 45 % utilization, at n bandwidths.
func shardKeyBodies(tb testing.TB, n int) [][]byte {
	tb.Helper()
	gen := message.PaperGenerator()
	gen.Streams = 55
	set, err := gen.Draw(rand.New(rand.NewSource(51)))
	if err != nil {
		tb.Fatal(err)
	}
	if set, err = set.ScaleToUtilization(0.45, ring.Mbps(100)); err != nil {
		tb.Fatal(err)
	}
	var req service.AnalyzeRequest
	for _, s := range set {
		req.Streams = append(req.Streams, service.StreamSpec{Name: s.Name, PeriodMs: s.Period * 1e3, LengthBits: s.LengthBits})
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		req.BandwidthMbps = 100 + float64(i)/1024
		if bodies[i], err = json.Marshal(req); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// TestShardKeyAliasMatchesDecode checks the routing alias against a
// fresh decode: a repeated body routes by the key its first decode
// produced, an undecodable one routes nowhere, and distinct bodies of
// one canonical request share a key.
func TestShardKeyAliasMatchesDecode(t *testing.T) {
	l := &Balancer{keys: service.NewCache(routeKeyBytes)}
	body := shardKeyBodies(t, 1)[0]
	want, ok := service.NewCache(routeKeyBytes).KeyOf("analyze", body)
	if !ok {
		t.Fatal("body did not key")
	}
	for i := 0; i < 2; i++ {
		if got, ok := l.keys.KeyOf("analyze", body); !ok || got != want {
			t.Fatalf("round %d: key %q %v, want %q", i, got, ok, want)
		}
	}
	spaced := append([]byte(" "), body...)
	if got, ok := l.keys.KeyOf("analyze", spaced); !ok || got != want {
		t.Errorf("whitespace variant keyed %q %v, want %q", got, ok, want)
	}
	if _, ok := l.keys.KeyOf("sweep", body); ok {
		t.Error("an analyze body keyed as a sweep")
	}
	if _, ok := l.keys.KeyOf("analyze", []byte("{")); ok {
		t.Error("an undecodable body keyed")
	}
}

// backendKey is the key a backend gives body on its slow path: decode,
// canonicalize, key, with no alias involved.
func backendKey(tb testing.TB, body []byte) string {
	tb.Helper()
	var req service.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		tb.Fatal(err)
	}
	canon, err := req.Canonicalize()
	if err != nil {
		tb.Fatal(err)
	}
	return canon.CacheKey()
}

// TestShardKeyRepeatAddsNoEntry: a repeated body resolves to the key its
// first route gave it, through the one alias entry that route recorded.
func TestShardKeyRepeatAddsNoEntry(t *testing.T) {
	l := &Balancer{keys: service.NewCache(routeKeyBytes)}
	body := shardKeyBodies(t, 1)[0]
	want := backendKey(t, body)
	for i := 0; i < 3; i++ {
		if got, ok := l.keys.KeyOf("analyze", body); !ok || got != want {
			t.Fatalf("route %d: key %q %v, want %q", i, got, ok, want)
		}
		if n := l.keys.Entries(); n != 1 {
			t.Fatalf("route %d: %d alias entries, want 1", i, n)
		}
	}
}

// TestShardKeyOversizedBodyRoutes: a body too large for one shard's alias
// budget (here a 55-stream body behind a shard's worth of whitespace) is
// not aliased, and every route of it still finds the backend's key.
func TestShardKeyOversizedBodyRoutes(t *testing.T) {
	l := &Balancer{keys: service.NewCache(routeKeyBytes)}
	body := shardKeyBodies(t, 1)[0]
	big := append(bytes.Repeat([]byte(" "), routeKeyBytes/16), body...)
	want := backendKey(t, body)
	for i := 0; i < 2; i++ {
		if got, ok := l.keys.KeyOf("analyze", big); !ok || got != want {
			t.Fatalf("route %d: key %q %v, want %q", i, got, ok, want)
		}
	}
	if n := l.keys.Entries(); n != 0 {
		t.Errorf("%d alias entries, want none for a body past a shard's budget", n)
	}
}

// BenchmarkShardKey times the lb's route step on 55-stream analyze
// bodies: hit is a body routed before (alias lookup), miss a
// new one (decode, canonicalize, key and the alias insert).
func BenchmarkShardKey(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		l := &Balancer{keys: service.NewCache(routeKeyBytes)}
		body := shardKeyBodies(b, 1)[0]
		l.keys.KeyOf("analyze", body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := l.keys.KeyOf("analyze", body); !ok {
				b.Fatal("no key")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		l := &Balancer{keys: service.NewCache(routeKeyBytes)}
		bodies := shardKeyBodies(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := l.keys.KeyOf("analyze", bodies[i]); !ok {
				b.Fatal("no key")
			}
		}
	})
}
