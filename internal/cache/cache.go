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
// One mutex guards a map and an intrusive doubly linked list in recency
// order, so eviction takes the list's back in O(1) and the replacement order
// is exact global LRU. Put takes ownership of the image it is handed: the
// cache stores that slice, not a copy, and Lookup hands the same slice to
// every reader, so neither the caller nor any reader may write to it again.
//
// The Table 1 experiments depend on the distinction between a cached block
// access (~0.6 ms to access and interpret) and a device read (~150 ms seek).
// The cache counts hits and misses; the one read-through path, in core,
// charges the virtual clock for whichever it was.
package cache

import "sync"

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
	key        Key
	data       []byte
	prev, next *entry // recency list links
	// dec holds an optional decoded form of data, attached by the reader the
	// first time it interprets the block (see Attach). It rides the entry's
	// lifetime: replacing or removing the entry discards it.
	dec any
}

// Cache is an LRU block cache. It is safe for concurrent use.
type Cache struct {
	capacity int // max blocks; <= 0 means unbounded

	mu      sync.Mutex
	entries map[Key]*entry
	root    entry // list sentinel: root.next is the most recent, root.prev the LRU victim
	stats   Stats
}

// New returns a cache bounded to capacity blocks (<= 0 for unbounded).
func New(capacity int) *Cache {
	c := &Cache{capacity: capacity, entries: make(map[Key]*entry)}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// unlink takes e out of the recency list; c.mu held.
func (c *Cache) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront makes e the most recent entry; c.mu held.
func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

// get returns key's entry promoted to most recent, or nil, counting a hit or
// miss; c.mu held.
func (c *Cache) get(key Key) *entry {
	e := c.entries[key]
	if e == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.unlink(e)
	c.pushFront(e)
	return e
}

// Lookup returns the cached image for key and promotes it, or nil on a
// miss. It counts a hit or miss but charges no virtual time; callers that
// model costs charge separately.
func (c *Cache) Lookup(key Key) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.get(key); e != nil {
		return e.data
	}
	return nil
}

// LookupDecoded returns the cached image for key together with any decoded
// form previously attached to it (nil when none), promoting the entry and
// counting a hit or miss exactly like Lookup. It lets a warm reader skip
// re-parsing a block it has interpreted before.
func (c *Cache) LookupDecoded(key Key) ([]byte, any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.get(key); e != nil {
		return e.data, e.dec
	}
	return nil, nil
}

// Attach records a decoded form for the block image img, as returned by
// Lookup or LookupDecoded for key or as handed to Put. The attach succeeds
// only if the entry still holds that exact slice — a concurrent Put (the
// staged tail being re-sealed) replaces the slice and must not inherit a
// decode of the older image. The identity check makes a stale attach a
// harmless no-op.
func (c *Cache) Attach(key Key, img []byte, dec any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || len(e.data) != len(img) || len(img) == 0 || &e.data[0] != &img[0] {
		return
	}
	e.dec = dec
}

// Peek reports whether key is cached without promoting it or charging time.
func (c *Cache) Peek(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}

// Put inserts an immutable block image and takes ownership of it: the cache
// keeps data itself, and the caller must never write to it again. Every
// caller hands over an image nothing else writes: a buffer it just read and
// validated (core's read-through miss and cold fetch), a fresh Builder.Seal
// or Reindex result (the writer's tail, pipelined and completed seals), an
// image the reader snapshot already publishes as immutable, or one recovery
// just loaded from NVRAM. Inserting a new key into a full cache evicts the
// least recently used entry.
func (c *Cache) Put(key Key, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		// Blocks are immutable; replacing is tolerated for the staged tail
		// block, which is re-put each time it is re-sealed. Any decoded form
		// describes the old image and is discarded with it.
		e.data, e.dec = data, nil
		c.unlink(e)
		c.pushFront(e)
		return
	}
	var e *entry
	if c.capacity > 0 && len(c.entries) >= c.capacity {
		e = c.root.prev // the victim's entry is reused for the insert
		c.unlink(e)
		delete(c.entries, e.key)
		c.stats.Evictions++
	} else {
		e = new(entry)
	}
	*e = entry{key: key, data: data}
	c.pushFront(e)
	c.entries[key] = e
	c.stats.Inserts++
}

// Invalidate drops a cached block (used when a block is invalidated on the
// medium or a staged tail block is superseded).
func (c *Cache) Invalidate(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		c.unlink(e)
		delete(c.entries, key)
	}
}

// Flush empties the cache entirely (used by experiments to force the
// no-caching worst case of §3.3.1).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.root.next, c.root.prev = &c.root, &c.root
}
