package service

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// cacheShards is the fixed shard count. Sixteen shards keep lock
// contention negligible at the request rates one process serves while
// keeping the per-shard byte budget large enough for whole sweep bodies.
const cacheShards = 16

// entryOverhead approximates the per-entry bookkeeping cost (map bucket,
// list element, entry struct) charged against the byte budget.
const entryOverhead = 128

// Cache is a sharded LRU mapping canonical request keys to encoded
// response bodies, and exact request bodies to canonical keys (the alias,
// alias.go), under a global byte budget. All methods are safe for
// concurrent use; hit/miss/eviction counters are atomic so the metrics
// endpoint can read them without taking shard locks.
type Cache struct {
	shards      [cacheShards]cacheShard
	shardBudget int64
	seed        maphash.Seed // shards every key

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
	entries   atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recent; values are *cacheEntry
	items map[string]*list.Element
	bytes int64 // the resident entries' sizes, summed as they come and go
}

// cacheEntry is a result body under its canonical key, or an alias: an
// exact request body, tagged with its endpoint, pointing at the canonical
// key it keys to (alias.go). An entry is never modified once stored; Put
// swaps in a new one.
type cacheEntry struct {
	key    string
	body   []byte
	target string // an alias's canonical key
}

func (e *cacheEntry) size() int64 {
	return int64(len(e.key)) + int64(len(e.body)) + int64(len(e.target)) + entryOverhead
}

// NewCache returns a cache bounded by budgetBytes across all shards;
// non-positive budgets fall back to 64 MiB.
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = 64 << 20
	}
	c := &Cache{shardBudget: budgetBytes / cacheShards, seed: maphash.MakeSeed()}
	if c.shardBudget < 1 {
		c.shardBudget = 1
	}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].items = map[string]*list.Element{}
	}
	return c
}

// shard picks key's shard by maphash under the cache's seed, which reads
// a 4 KB alias key in wide words where a byte-at-a-time hash would cost
// more than the lookup it routes.
func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%cacheShards]
}

// Get returns the cached body for key, marking it most recently used.
// The returned slice is shared — callers must not modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	body, ok := c.lookup(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return body, true
}

// lookup is Get without the hit and miss counters, for a re-check that
// must not count one request twice.
func (c *Cache) lookup(key string) ([]byte, bool) {
	e, ok := c.entry(key)
	if !ok {
		return nil, false
	}
	return e.body, true
}

// entry returns key's entry, marking it most recently used.
func (c *Cache) entry(key string) (*cacheEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touch(s.items[key])
}

// entryBytes is entry for a key held in a byte slice: the shard and the
// map read the bytes in place, so a lookup copies nothing. maphash hashes
// a string and its bytes alike, so the key lands in entry's shard.
func (c *Cache) entryBytes(key []byte) (*cacheEntry, bool) {
	s := &c.shards[maphash.Bytes(c.seed, key)%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touch(s.items[string(key)])
}

// touch marks el most recently used and returns its entry, or false for
// a nil el (a key the shard does not hold). s.mu must be held: a
// concurrent Put may replace el.Value (never the entry it points to).
func (s *cacheShard) touch(el *list.Element) (*cacheEntry, bool) {
	if el == nil {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// Put stores body under key, evicting least-recently-used entries until
// the shard fits its budget. A body larger than a whole shard's budget is
// not cached at all — evicting everything for one entry nobody may ask
// for again is worse than recomputing it. The shard keeps a running byte
// count, so a Put costs O(1) plus one step per evicted entry.
func (c *Cache) Put(key string, body []byte) {
	c.put(&cacheEntry{key: key, body: body})
}

func (c *Cache) put(e *cacheEntry) {
	size := e.size()
	if size > c.shardBudget {
		return
	}
	s := c.shard(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.key]; ok {
		size -= el.Value.(*cacheEntry).size()
		el.Value = e
		s.lru.MoveToFront(el)
	} else {
		s.items[e.key] = s.lru.PushFront(e)
		c.entries.Add(1)
	}
	s.bytes += size
	c.bytes.Add(size)
	for s.bytes > c.shardBudget {
		tail := s.lru.Back()
		if tail == s.lru.Front() {
			break
		}
		victim := tail.Value.(*cacheEntry)
		s.lru.Remove(tail)
		delete(s.items, victim.key)
		s.bytes -= victim.size()
		c.bytes.Add(-victim.size())
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
}

// Hits returns the number of requests served from the cache: Get hits
// and alias hits.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of Get calls that found nothing.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions returns the number of entries displaced by the byte budget.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Bytes returns the resident size of the cache, alias entries and
// bookkeeping included.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Entries returns the number of resident entries, alias entries included.
func (c *Cache) Entries() int64 { return c.entries.Load() }
