// Package cache implements the file server's main-memory block cache (the
// buffer pool the paper's log service shares with the conventional file
// server, §1 and §3.3).
//
// The cache maps (volume, block index) to immutable block images. Log-device
// blocks are written once and never change, so the cache never needs a dirty
// list or write-back: a block enters the cache either when it is read from
// the device or at the moment the writer seals it (write-through on append),
// and is evicted purely by LRU.
//
// The cache is sharded N ways by key hash so concurrent readers of disjoint
// blocks never contend on one lock. Recency is tracked with a single global
// access stamp (an atomic counter); eviction removes the entry whose stamp is
// globally smallest, so the replacement order is exactly the same as a
// single-list LRU — in particular, a single-threaded access sequence evicts
// byte-identically to the unsharded cache the experiments were calibrated
// against.
//
// The Table 1 experiments depend on the distinction between a cached block
// access (~0.6 ms to access and interpret) and a device read (~150 ms seek).
// The cache counts hits and misses; the one read-through path, in core,
// charges the virtual clock for whichever it was.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies a block: a volume tag plus a volume-relative block index.
type Key struct {
	// Volume is a small integer identifying the mounted volume.
	Volume int
	// Block is the volume-relative block index.
	Block int
}

// Stats reports cache effectiveness. The tags are the fields' /metrics
// series (obs.RegisterStruct).
type Stats struct {
	Hits      int64 `metric:"clio_cache_hits_total" help:"Block cache hits."`
	Misses    int64 `metric:"clio_cache_misses_total" help:"Block cache misses."`
	Evictions int64 `metric:"clio_cache_evictions_total" help:"Block cache evictions."`
	Inserts   int64 `metric:"clio_cache_inserts_total" help:"Block cache inserts."`
}

// HitRatio returns hits/(hits+misses), or 0 when no accesses occurred.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key   Key
	data  []byte
	stamp int64 // global access stamp at last touch
	elem  *list.Element
	// dec holds an optional decoded form of data, attached by the reader the
	// first time it interprets the block (see Attach). It rides the entry's
	// lifetime: replacing or removing the entry discards it.
	dec any
}

// numShards must be a power of two.
const numShards = 16

// shard is one lock domain of the cache. Its LRU list is ordered by access
// stamp (front = most recent), since every touch both assigns a fresh global
// stamp and moves the element to the front.
type shard struct {
	mu      sync.Mutex
	lru     *list.List
	entries map[Key]*entry
	stats   Stats
}

// Cache is a sharded LRU block cache. It is safe for concurrent use.
type Cache struct {
	capacity int // max blocks; <= 0 means unbounded
	shards   [numShards]shard
	size     atomic.Int64 // total cached blocks across shards
	stamp    atomic.Int64 // global access clock
}

// New returns a cache bounded to capacity blocks (<= 0 for unbounded).
func New(capacity int) *Cache {
	c := &Cache{capacity: capacity}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].entries = make(map[Key]*entry)
	}
	return c
}

func (c *Cache) shardOf(key Key) *shard {
	h := uint64(key.Block)*0x9E3779B97F4A7C15 ^ uint64(key.Volume)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return &c.shards[h&(numShards-1)]
}

// Capacity returns the block capacity the cache was built with (<= 0 means
// unbounded).
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	return int(c.size.Load())
}

// Stats returns a snapshot of the counters, aggregated across shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out.Hits += sh.stats.Hits
		out.Misses += sh.stats.Misses
		out.Evictions += sh.stats.Evictions
		out.Inserts += sh.stats.Inserts
		sh.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Lookup returns the cached image for key and promotes it, or nil on a
// miss. It counts a hit or miss but charges no virtual time; callers that
// model costs charge separately.
func (c *Cache) Lookup(key Key) []byte {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		sh.stats.Misses++
		return nil
	}
	sh.stats.Hits++
	e.stamp = c.stamp.Add(1)
	sh.lru.MoveToFront(e.elem)
	return e.data
}

// LookupDecoded returns the cached image for key together with any decoded
// form previously attached to it (nil when none), promoting the entry and
// counting a hit or miss exactly like Lookup. It lets a warm reader skip
// re-parsing a block it has interpreted before.
func (c *Cache) LookupDecoded(key Key) ([]byte, any) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		sh.stats.Misses++
		return nil, nil
	}
	sh.stats.Hits++
	e.stamp = c.stamp.Add(1)
	sh.lru.MoveToFront(e.elem)
	return e.data, e.dec
}

// Attach records a decoded form for the block image img, previously returned
// by Lookup or LookupDecoded for key. The attach succeeds only if the entry
// still holds that exact slice — a concurrent Put (the staged tail being
// re-sealed) replaces the slice and must not inherit a decode of the older
// image. The identity check makes a stale attach a harmless no-op.
func (c *Cache) Attach(key Key, img []byte, dec any) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || len(e.data) != len(img) || len(img) == 0 || &e.data[0] != &img[0] {
		return
	}
	e.dec = dec
}

// Peek reports whether key is cached without promoting it or charging time.
func (c *Cache) Peek(key Key) bool {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	return ok
}

// Put inserts an immutable block image (the cache keeps its own copy).
func (c *Cache) Put(key Key, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	sh := c.shardOf(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		// Blocks are immutable; replacing is tolerated for the staged tail
		// block, which is re-put each time it is re-sealed. Any decoded form
		// describes the old image and is discarded with it.
		e.data = cp
		e.dec = nil
		e.stamp = c.stamp.Add(1)
		sh.lru.MoveToFront(e.elem)
		sh.mu.Unlock()
		return
	}
	e := &entry{key: key, data: cp, stamp: c.stamp.Add(1)}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	sh.stats.Inserts++
	sh.mu.Unlock()
	c.size.Add(1)
	if c.capacity > 0 {
		c.evictOver()
	}
}

// evictOver removes globally least-recently-used entries until the cache is
// back within capacity. Each round scans the shard tails (each shard's list
// is stamp-ordered, so its back element is its oldest) and evicts the entry
// with the smallest stamp — the exact global LRU victim.
func (c *Cache) evictOver() {
	for c.size.Load() > int64(c.capacity) {
		var victim *shard
		minStamp := int64(-1)
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			if back := sh.lru.Back(); back != nil {
				st := back.Value.(*entry).stamp
				if minStamp < 0 || st < minStamp {
					minStamp = st
					victim = sh
				}
			}
			sh.mu.Unlock()
		}
		if victim == nil {
			return // emptied concurrently
		}
		victim.mu.Lock()
		back := victim.lru.Back()
		// The tail may have been promoted or removed between the scan and
		// this lock; evicting whatever is oldest in the chosen shard now is
		// still a valid LRU victim under concurrency, and single-threaded it
		// is exactly the entry the scan chose.
		if back == nil {
			victim.mu.Unlock()
			continue
		}
		old := back.Value.(*entry)
		victim.lru.Remove(back)
		delete(victim.entries, old.key)
		victim.stats.Evictions++
		victim.mu.Unlock()
		c.size.Add(-1)
	}
}

// Invalidate drops a cached block (used when a block is invalidated on the
// medium or a staged tail block is superseded).
func (c *Cache) Invalidate(key Key) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		sh.lru.Remove(e.elem)
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
	if ok {
		c.size.Add(-1)
	}
}

// Flush empties the cache entirely (used by experiments to force the
// no-caching worst case of §3.3.1).
func (c *Cache) Flush() {
	var dropped int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		dropped += int64(sh.lru.Len())
		sh.lru.Init()
		sh.entries = make(map[Key]*entry)
		sh.mu.Unlock()
	}
	c.size.Add(-dropped)
}
