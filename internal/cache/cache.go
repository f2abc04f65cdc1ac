// Package cache implements the file server's main-memory block cache (the
// buffer pool the paper's log service shares with the conventional file
// server, §1 and §3.3).
//
// The cache maps (volume, block index) to immutable block images. Log-device
// blocks are written once and never change, so the cache never needs a dirty
// list or write-back: a block enters the cache either when it is read from
// the device or when the writer's device write of it completes
// (write-through on seal), and is evicted purely by LRU. Only
// device-durable images enter it: the block the writer is still filling and
// the sealed blocks on their way to the device are served from core's
// reader snapshot.
//
// One mutex guards a map and an intrusive doubly linked list in recency
// order, so eviction takes the list's back in O(1) and the replacement order
// is exact global LRU. Put takes ownership of the image it is handed: the
// cache stores that slice, not a copy, and Lookup hands the same slice to
// every reader, so neither the caller nor any reader may write to it again.
//
// Beside the images the cache keeps a date table: the verified first-entry
// timestamp (§2.1) of sealed blocks a time search has dated. A sealed
// block's date never changes, so it outlives the block's image: evicting an
// image keeps its date, and a later search dates the block without reading
// it again. Flush drops every date, so a flushed cache is cold for dating
// too. The table is pages of 512 consecutive blocks, allocated when a
// page's first date is noted and read without a lock; it holds at most 32
// dates per block of capacity (never less than one page), and a page added
// past that bound drops the whole table first, as Flush does. The cache
// only stores dates: which blocks may be noted, and that the image a date
// came from was verified, is the caller's contract (see NoteDate).
//
// The Table 1 experiments depend on the distinction between a cached block
// access (~0.6 ms to access and interpret) and a device read (~150 ms seek).
// The cache counts hits and misses; the one read-through path, in core,
// counts the cost unit of whichever it was. A date read is neither a hit
// nor a miss and costs nothing: it counts as a date hit.
package cache

import (
	"math"
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
	// DateHits counts block dates served from the date table: a time
	// search's probe that read no image.
	DateHits int64 `metric:"clio_cache_date_hits_total" help:"Block dates served from the cache's date table (no image read)."`
	// Dates is the number of block dates the table holds (a gauge, not
	// zeroed by ResetStats).
	Dates int64 `metric:"clio_cache_dates" help:"Block dates held by the cache's date table."`
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

// Date table geometry: a page dates datePageBlocks consecutive blocks of one
// volume, and the table holds at most datesPerSlot dates per block of the
// cache's capacity.
const (
	datePageBlocks = 512
	datesPerSlot   = 32
	noDate         = math.MinInt64 // a page slot holding no date
)

// datePage dates datePageBlocks consecutive blocks. Its slots are read
// without a lock and written under Cache.mu. A page is never reused for
// other blocks, so a reader still holding a dropped page reads dates of the
// blocks it asked for.
type datePage struct {
	dates [datePageBlocks]atomic.Int64
}

type pageKey struct{ volume, page int }

// Cache is an LRU block cache. It is safe for concurrent use.
type Cache struct {
	capacity int // max blocks; <= 0 means unbounded

	mu      sync.Mutex
	entries map[Key]*entry
	root    entry // list sentinel: root.next is the most recent, root.prev the LRU victim
	stats   Stats

	// The date table: an immutable page map replaced whole under mu when a
	// page is added or the table is dropped, so Date loads it without a lock.
	pages    atomic.Pointer[map[pageKey]*datePage]
	maxPages int // <= 0 means unbounded
	dated    int // dates held; mu
	dateHits atomic.Int64
}

// New returns a cache bounded to capacity blocks (<= 0 for unbounded). Its
// date table is bounded to datesPerSlot dates per block of capacity, and to
// one page at least.
func New(capacity int) *Cache {
	c := &Cache{capacity: capacity, entries: make(map[Key]*entry)}
	c.root.next, c.root.prev = &c.root, &c.root
	if capacity > 0 {
		c.maxPages = max(1, capacity*datesPerSlot/datePageBlocks)
	}
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
	st := c.stats
	st.DateHits, st.Dates = c.dateHits.Load(), int64(c.dated)
	return st
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
	c.dateHits.Store(0)
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
// miss. It counts a hit or miss; callers count the cost units of the
// access themselves.
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
// only if the entry still holds that exact slice — a concurrent Put of the
// same block replaces the slice and must not inherit a decode of the other
// one. The identity check makes a stale attach a harmless no-op.
//
// The decode stays as long as the image, so its size is part of what a
// cached block costs: core's decode of a data block is an 80-byte record
// plus 2 bytes a record, with no pointer in its record index, on top of the
// image it refers to (DESIGN.md, "What a decoded block keeps").
func (c *Cache) Attach(key Key, img []byte, dec any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || len(e.data) != len(img) || len(img) == 0 || &e.data[0] != &img[0] {
		return
	}
	e.dec = dec
}

// Put inserts an immutable block image and takes ownership of it: the cache
// keeps data itself, and the caller must never write to it again. Every
// caller hands over a device-durable image nothing else writes: a buffer it
// just read and validated (core's read-through miss and cold fetch), or a
// completed seal's image as it landed (live, or replayed by recovery).
// Inserting a new key into a full cache evicts the least recently used
// entry.
func (c *Cache) Put(key Key, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		// Blocks are immutable, so a replacement holds the same bytes (two
		// readers missed the block at once); any decoded form goes with the
		// old slice, which Attach's identity check relies on.
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

// Flush empties the cache entirely, dates included (used by experiments to
// force the no-caching worst case of §3.3.1).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.root.next, c.root.prev = &c.root, &c.root
	c.pages.Store(nil)
	c.dated = 0
}

// page returns the date page holding key's slot and the slot's index, or a
// nil page when none was allocated.
func (c *Cache) page(key Key) (*datePage, int) {
	i := key.Block % datePageBlocks
	m := c.pages.Load()
	if m == nil || key.Block < 0 {
		return nil, i
	}
	return (*m)[pageKey{key.Volume, key.Block / datePageBlocks}], i
}

// Date returns the date noted for key's block, if the table holds one. It
// takes no lock and reads no image; a date returned counts as a date hit.
func (c *Cache) Date(key Key) (int64, bool) {
	p, i := c.page(key)
	if p == nil {
		return 0, false
	}
	ts := p.dates[i].Load()
	if ts == noDate {
		return 0, false
	}
	c.dateHits.Add(1)
	return ts, true
}

// NoteDate records ts as the date of key's block. The caller notes only a
// date it took from an image it verified, of a block whose image can never
// change while the date is held: the cache keeps the date after the image
// is evicted, and Date returns it unchecked.
func (c *Cache) NoteDate(key Key, ts int64) {
	if ts == noDate || key.Block < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, i := c.page(key)
	if p == nil {
		p = c.addPage(pageKey{key.Volume, key.Block / datePageBlocks})
	}
	if p.dates[i].Swap(ts) == noDate {
		c.dated++
	}
}

// addPage allocates the page pk. A table at its bound is dropped first, as
// Flush drops it: no workload measured yet dates more blocks than the bound
// holds, so no recency order is kept to choose a victim. c.mu held.
func (c *Cache) addPage(pk pageKey) *datePage {
	var old map[pageKey]*datePage
	if m := c.pages.Load(); m != nil && (c.maxPages <= 0 || len(*m) < c.maxPages) {
		old = *m
	} else {
		c.dated = 0
	}
	next := make(map[pageKey]*datePage, len(old)+1)
	for k, p := range old {
		next[k] = p
	}
	p := new(datePage)
	for i := range p.dates {
		p.dates[i].Store(noDate)
	}
	next[pk] = p
	c.pages.Store(&next)
	return p
}
