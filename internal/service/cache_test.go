package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestCacheRoundtripAndCounters(t *testing.T) {
	c := NewCache(1 << 20)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	if c.Misses() != 1 || c.Hits() != 0 {
		t.Fatalf("counters after miss: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	body := []byte(`{"answer": 42}`)
	c.Put("k", body)
	got, ok := c.Get("k")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get after Put = %q, %v", got, ok)
	}
	if c.Hits() != 1 || c.Misses() != 1 || c.Entries() != 1 {
		t.Fatalf("counters after hit: hits=%d misses=%d entries=%d", c.Hits(), c.Misses(), c.Entries())
	}
	if c.Bytes() <= int64(len(body)) {
		t.Fatalf("Bytes()=%d should include key and overhead", c.Bytes())
	}

	// In-place update replaces the body and adjusts the byte count.
	bigger := bytes.Repeat([]byte("x"), 500)
	before := c.Bytes()
	c.Put("k", bigger)
	got, _ = c.Get("k")
	if !bytes.Equal(got, bigger) {
		t.Fatal("update did not replace body")
	}
	if c.Entries() != 1 || c.Bytes() != before+int64(len(bigger)-len(body)) {
		t.Fatalf("update bookkeeping: entries=%d bytes=%d", c.Entries(), c.Bytes())
	}
}

func TestCacheEvictsLRUUnderBudget(t *testing.T) {
	// A tiny budget: shardBudget = 4096/16 = 256 bytes, so one ~100-byte
	// body plus overhead fills a shard and a second entry in the same
	// shard evicts the older one.
	c := NewCache(4096)
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shard(k) == &c.shards[0] {
			keys = append(keys, k)
		}
	}
	body := bytes.Repeat([]byte("v"), 100)
	c.Put(keys[0], body)
	c.Put(keys[1], body)
	if c.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", c.Evictions())
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("LRU victim still resident")
	}
	if _, ok := c.Get(keys[1]); !ok {
		t.Error("newest entry evicted instead of oldest")
	}
}

func TestCacheSkipsOversizedBodies(t *testing.T) {
	c := NewCache(4096) // shardBudget 256
	c.Put("huge", bytes.Repeat([]byte("x"), 1024))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized body was cached")
	}
	if c.Entries() != 0 || c.Bytes() != 0 || c.Evictions() != 0 {
		t.Errorf("oversized Put disturbed state: entries=%d bytes=%d evictions=%d",
			c.Entries(), c.Bytes(), c.Evictions())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%32)
				c.Put(k, []byte(k))
				if body, ok := c.Get(k); ok && string(body) != k {
					t.Errorf("goroutine %d: Get(%q) = %q", g, k, body)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Entries() != 32 {
		t.Errorf("entries=%d, want 32", c.Entries())
	}
}

// TestCacheBytesMatchResidentEntries drives randomized Put (new keys,
// replacements that grow and shrink, oversized bodies), Get and eviction
// sequences and checks the running byte counts against a walk of every
// shard: Bytes() is the sum of resident entry sizes, each shard's count is
// its own sum and stays within its budget, and Entries() is the count.
func TestCacheBytesMatchResidentEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, budget := range []int64{4096, 64 << 10, 1 << 20} {
		c := NewCache(budget)
		for op := 0; op < 5000; op++ {
			k := fmt.Sprintf("key-%d", rng.Intn(200))
			switch rng.Intn(4) {
			case 0:
				c.Get(k)
			default:
				c.Put(k, make([]byte, rng.Intn(int(c.shardBudget)+64)))
			}
			if op%250 != 249 {
				continue
			}
			var total, entries int64
			for i := range c.shards {
				s := &c.shards[i]
				var sum int64
				for el := s.lru.Front(); el != nil; el = el.Next() {
					sum += el.Value.(*cacheEntry).size()
					entries++
				}
				if sum != s.bytes || sum > c.shardBudget || len(s.items) != s.lru.Len() {
					t.Fatalf("budget %d op %d shard %d: counted %d, resident %d (budget %d), %d items on a %d-entry list",
						budget, op, i, s.bytes, sum, c.shardBudget, len(s.items), s.lru.Len())
				}
				total += sum
			}
			if c.Bytes() != total || c.Entries() != entries {
				t.Fatalf("budget %d op %d: Bytes()=%d Entries()=%d, resident %d bytes in %d entries",
					budget, op, c.Bytes(), c.Entries(), total, entries)
			}
		}
		if c.Evictions() == 0 {
			t.Errorf("budget %d: the sequence never evicted", budget)
		}
	}
}
