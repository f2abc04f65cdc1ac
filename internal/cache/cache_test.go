package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// holds reports whether key's image is cached, without promoting it or
// counting a hit or miss.
func (c *Cache) holds(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}

func block(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestPutGetLRU(t *testing.T) {
	c := New(2)
	c.Put(Key{0, 0}, block(8, 1))
	c.Put(Key{0, 1}, block(8, 2))
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Touch block 0 so block 1 is the LRU victim.
	if got := c.Lookup(Key{0, 0}); got == nil {
		t.Fatal("lookup miss on cached block")
	}
	c.Put(Key{0, 2}, block(8, 3))
	if c.holds(Key{0, 1}) {
		t.Error("LRU victim not evicted")
	}
	if !c.holds(Key{0, 0}) || !c.holds(Key{0, 2}) {
		t.Error("wrong block evicted")
	}
	if c.Lookup(Key{0, 1}) != nil {
		t.Error("lookup hit on the evicted block")
	}
	if s := c.Stats(); s != (Stats{Hits: 1, Misses: 1, Evictions: 1, Inserts: 3}) {
		t.Errorf("stats = %+v", s)
	}
}

// lruModel is the reference the cache is checked against: the entries in a
// slice, most recent first.
type lruModel struct {
	capacity int
	ents     []modelEntry
	stats    Stats
}

type modelEntry struct {
	key  Key
	data []byte
	dec  any
}

func (m *lruModel) find(k Key) int {
	for i := range m.ents {
		if m.ents[i].key == k {
			return i
		}
	}
	return -1
}

// touch moves entry i to the front and returns it.
func (m *lruModel) touch(i int) *modelEntry {
	e := m.ents[i]
	copy(m.ents[1:i+1], m.ents[:i])
	m.ents[0] = e
	return &m.ents[0]
}

func (m *lruModel) lookup(k Key) ([]byte, any) {
	i := m.find(k)
	if i < 0 {
		m.stats.Misses++
		return nil, nil
	}
	m.stats.Hits++
	e := m.touch(i)
	return e.data, e.dec
}

func (m *lruModel) put(k Key, data []byte) {
	if i := m.find(k); i >= 0 {
		e := m.touch(i)
		e.data, e.dec = data, nil
		return
	}
	m.stats.Inserts++
	m.ents = append([]modelEntry{{key: k, data: data}}, m.ents...)
	if m.capacity > 0 && len(m.ents) > m.capacity {
		m.ents = m.ents[:len(m.ents)-1]
		m.stats.Evictions++
	}
}

func (m *lruModel) attach(k Key, img []byte, dec any) {
	if i := m.find(k); i >= 0 && len(img) > 0 && same(m.ents[i].data, img) {
		m.ents[i].dec = dec
	}
}

// same reports whether a and b are the same slice: the ownership contract
// is that a reader gets the very image handed to Put, not a copy.
func same(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestCacheMatchesModel runs seeded op sequences against the cache and the
// reference LRU, bounded and unbounded. After every op both must have
// returned the same slices and decodes, hold the same keys (so every eviction
// took the same victim) and report equal Stats and Len.
func TestCacheMatchesModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 8} {
		for seed := int64(1); seed <= 20; seed++ {
			if msg := runAgainstModel(capacity, seed, 1500); msg != "" {
				t.Fatalf("capacity %d, seed %d: %s", capacity, seed, msg)
			}
		}
	}
}

func runAgainstModel(capacity int, seed int64, ops int) string {
	rng := rand.New(rand.NewSource(seed))
	c, m := New(capacity), &lruModel{capacity: capacity}
	var keys []Key
	for v := 0; v < 2; v++ {
		for b := 0; b < 12; b++ {
			keys = append(keys, Key{v, b})
		}
	}
	handed := make(map[Key][][]byte) // every slice put under a key, newest last
	for i := 0; i < ops; i++ {
		k := keys[rng.Intn(len(keys))]
		var op string
		switch r := rng.Intn(100); {
		case r < 30:
			img := block(8, byte(i))
			handed[k] = append(handed[k], img)
			c.Put(k, img)
			m.put(k, img)
			op = "Put"
		case r < 50:
			want, _ := m.lookup(k)
			if !same(c.Lookup(k), want) {
				return fmt.Sprintf("op %d: Lookup(%v) returned a different slice than the model", i, k)
			}
			op = "Lookup"
		case r < 70:
			got, gotDec := c.LookupDecoded(k)
			want, wantDec := m.lookup(k)
			if !same(got, want) || gotDec != wantDec {
				return fmt.Sprintf("op %d: LookupDecoded(%v) = (%p, %v), model (%p, %v)", i, k, got, gotDec, want, wantDec)
			}
			op = "LookupDecoded"
		case r < 98:
			h := handed[k]
			if len(h) == 0 {
				continue
			}
			img := h[len(h)-1] // the current image, unless evicted or flushed since
			if rng.Intn(2) == 0 {
				img = h[rng.Intn(len(h))] // most likely stale
			}
			dec := new(int)
			c.Attach(k, img, dec)
			m.attach(k, img, dec)
			op = "Attach"
		default:
			c.Flush()
			m.ents = nil
			op = "Flush"
		}
		if c.Len() != len(m.ents) || c.Stats() != m.stats {
			return fmt.Sprintf("op %d (%s %v): Len %d Stats %+v, model Len %d Stats %+v", i, op, k, c.Len(), c.Stats(), len(m.ents), m.stats)
		}
		for _, key := range keys {
			if c.holds(key) != (m.find(key) >= 0) {
				return fmt.Sprintf("op %d (%s %v): cache holds %v: %v, model: %v", i, op, k, key, c.holds(key), m.find(key) >= 0)
			}
		}
	}
	return ""
}

// TestCacheConcurrentBounded runs mixed ops from several goroutines on a
// bounded cache (meant for -race) and checks the counters balance after.
func TestCacheConcurrentBounded(t *testing.T) {
	const capacity, workers, ops = 64, 4, 10000
	c := New(capacity)
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := Key{rng.Intn(2), rng.Intn(100)}
				switch r := rng.Intn(10); {
				case r < 4:
					c.Put(k, block(8, byte(i)))
				case r < 6:
					lookups.Add(1)
					c.Lookup(k)
				case r < 8:
					lookups.Add(1)
					if img, _ := c.LookupDecoded(k); img != nil {
						c.Attach(k, img, i)
					}
				default:
					c.Len()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st, n := c.Stats(), c.Len()
	if n > capacity {
		t.Errorf("Len %d over capacity %d", n, capacity)
	}
	if st.Hits+st.Misses != lookups.Load() {
		t.Errorf("hits %d + misses %d, want the %d lookups issued", st.Hits, st.Misses, lookups.Load())
	}
	if got := st.Inserts - st.Evictions; got != int64(n) {
		t.Errorf("inserts %d - evictions %d = %d, want Len %d", st.Inserts, st.Evictions, got, n)
	}
	if st.Evictions == 0 {
		t.Error("no evictions: the run never filled the cache")
	}
}

func TestUnboundedCache(t *testing.T) {
	c := New(0)
	for i := 0; i < 1000; i++ {
		c.Put(Key{0, i}, block(8, byte(i)))
	}
	if c.Len() != 1000 {
		t.Errorf("unbounded cache evicted: len=%d", c.Len())
	}
}

func TestHitRatio(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if r := s.HitRatio(); r != 0.75 {
		t.Errorf("HitRatio = %v", r)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty HitRatio != 0")
	}
}

// dateOf is the date the date tests note for a block: distinct per key, so
// a date read for the wrong block cannot pass for the right one.
func dateOf(k Key) int64 { return int64(k.Volume)<<40 | int64(k.Block)<<8 | 0x5a }

// TestDateBound fills the date table far past its bound at three cache
// capacities: it never holds more than datesPerSlot dates per block of
// capacity, and the most recently noted date is always kept.
func TestDateBound(t *testing.T) {
	for _, capacity := range []int{16, 64, 4096} {
		c := New(capacity)
		limit := int64(capacity * datesPerSlot)
		maxPages := capacity * datesPerSlot / datePageBlocks
		for b := 0; b < 4*int(limit)+datePageBlocks/2; b++ {
			k := Key{0, b}
			c.NoteDate(k, dateOf(k))
			if n := c.Stats().Dates; n > limit {
				t.Fatalf("capacity %d: %d dates held after noting block %d, bound %d", capacity, n, b, limit)
			}
			if pages := len(*c.pages.Load()); pages > maxPages {
				t.Fatalf("capacity %d: %d pages after noting block %d, bound %d", capacity, pages, b, maxPages)
			}
			if ts, ok := c.Date(k); !ok || ts != dateOf(k) {
				t.Fatalf("capacity %d: the date just noted for block %d reads %d, %v", capacity, b, ts, ok)
			}
		}
		if st := c.Stats(); c.Len() != 0 || st.Inserts != 0 {
			t.Errorf("capacity %d: noting dates cached %d images", capacity, c.Len())
		}
	}
}

// TestDateDropsTableWhenFull: a page added past the bound drops every date
// held, as Flush does, and starts the table again with the new page.
func TestDateDropsTableWhenFull(t *testing.T) {
	c := New(64) // 2048 dates: four pages
	for p := 0; p < 4; p++ {
		k := Key{0, p * datePageBlocks}
		c.NoteDate(k, dateOf(k))
	}
	if st := c.Stats(); st.Dates != 4 {
		t.Fatalf("%d dates held before the bound, want 4", st.Dates)
	}
	k := Key{0, 4 * datePageBlocks}
	c.NoteDate(k, dateOf(k))
	for p := 0; p <= 4; p++ {
		_, ok := c.Date(Key{0, p * datePageBlocks})
		if ok != (p == 4) {
			t.Errorf("page %d: date held %v after the fifth page was added", p, ok)
		}
	}
	if st := c.Stats(); st.Dates != 1 || len(*c.pages.Load()) != 1 {
		t.Errorf("%d dates on %d pages after the drop, want 1 on 1", st.Dates, len(*c.pages.Load()))
	}
}

// TestDateOutlivesImageEviction: evicting a block's image keeps its date,
// and a date read is neither an image hit nor a miss.
func TestDateOutlivesImageEviction(t *testing.T) {
	c := New(2)
	k := Key{0, 7}
	c.Put(k, block(8, 1))
	c.NoteDate(k, dateOf(k))
	c.Put(Key{0, 8}, block(8, 2))
	c.Put(Key{0, 9}, block(8, 3)) // evicts block 7's image
	if c.holds(k) {
		t.Fatal("block 7's image was not evicted")
	}
	if ts, ok := c.Date(k); !ok || ts != dateOf(k) {
		t.Fatalf("Date after image eviction = %d, %v; want %d", ts, ok, dateOf(k))
	}
	if _, ok := c.Date(Key{0, 8}); ok {
		t.Error("a block never dated has a date")
	}
	st := c.Stats()
	if st.DateHits != 1 || st.Hits != 0 || st.Misses != 0 || st.Dates != 1 {
		t.Errorf("stats = %+v; want one date hit and no image hit or miss", st)
	}
	c.ResetStats()
	if st := c.Stats(); st.DateHits != 0 || st.Dates != 1 {
		t.Errorf("after ResetStats: %+v; want the date hits zeroed and the date kept", st)
	}
}

// TestDateFlush: Flush drops every date with every image.
func TestDateFlush(t *testing.T) {
	c := New(32) // two pages: one per volume
	keys := []Key{{0, 1}, {0, 2}, {1, 1}}
	for _, k := range keys {
		c.Put(k, block(8, byte(k.Block)))
		c.NoteDate(k, dateOf(k))
	}
	if st := c.Stats(); st.Dates != 3 {
		t.Errorf("%d dates held, want 3", st.Dates)
	}
	c.Flush()
	for _, k := range keys {
		if _, ok := c.Date(k); ok || c.holds(k) {
			t.Errorf("Flush kept the date or the image of %v", k)
		}
	}
	if st := c.Stats(); st.Dates != 0 {
		t.Errorf("%d dates held after Flush", st.Dates)
	}
}

// TestDateConcurrent runs Date, NoteDate, Put and Flush from several
// goroutines (meant for -race) on a table small enough to be dropped all
// the time: a date read is always the one noted for the block asked for.
func TestDateConcurrent(t *testing.T) {
	const workers, ops = 4, 10000
	c := New(16) // one page of dates
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				// Few slots on many pages: pages are added and the table
				// dropped all the time, and each page is read at the slots
				// that are noted.
				k := Key{rng.Intn(2), rng.Intn(4)*datePageBlocks + rng.Intn(8)}
				switch r := rng.Intn(10); {
				case r < 4:
					if ts, ok := c.Date(k); ok && ts != dateOf(k) {
						wrong.Add(1)
					}
				case r < 7:
					c.NoteDate(k, dateOf(k))
				case r < 9:
					c.Put(k, block(8, byte(i)))
				default:
					c.Flush()
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d date reads returned another block's date", n)
	}
	if st := c.Stats(); st.Dates > 16*datesPerSlot {
		t.Errorf("%d dates held, bound %d", st.Dates, 16*datesPerSlot)
	}
}
