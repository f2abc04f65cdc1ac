package cache

import "testing"

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
	if c.Peek(Key{0, 1}) {
		t.Error("LRU victim not evicted")
	}
	if !c.Peek(Key{0, 0}) || !c.Peek(Key{0, 2}) {
		t.Error("wrong block evicted")
	}
	if c.Lookup(Key{0, 1}) != nil {
		t.Error("lookup hit on the evicted block")
	}
	if s := c.Stats(); s != (Stats{Hits: 1, Misses: 1, Evictions: 1, Inserts: 3}) {
		t.Errorf("stats = %+v", s)
	}
}

func TestPutCopies(t *testing.T) {
	c := New(0)
	src := block(8, 5)
	c.Put(Key{0, 0}, src)
	src[0] = 99
	got := c.Lookup(Key{0, 0})
	if got[0] != 5 {
		t.Error("cache aliases caller buffer")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := New(0)
	c.Put(Key{0, 0}, block(8, 1))
	c.Put(Key{0, 1}, block(8, 2))
	c.Put(Key{1, 0}, block(8, 3))
	c.Invalidate(Key{0, 0})
	if c.Peek(Key{0, 0}) {
		t.Error("invalidated block still cached")
	}
	if !c.Peek(Key{0, 1}) || !c.Peek(Key{1, 0}) || c.Len() != 2 {
		t.Error("Invalidate dropped more than its block")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Error("Flush left entries")
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
