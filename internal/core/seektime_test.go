package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"clio/internal/wodev"
	"clio/internal/workload"
)

// seekRef is a linear scan of one log: the reference a SeekTime+Next is
// checked against.
type seekRef []*Entry

// at returns the first entry of the scan at or after ts, nil past the end.
func (r seekRef) at(ts int64) *Entry {
	i := sort.Search(len(r), func(i int) bool { return r[i].Timestamp >= ts })
	if i == len(r) {
		return nil
	}
	return r[i]
}

// checkSeek runs SeekTime(ts)+Next on c and compares the entry with ref.
func checkSeek(t *testing.T, c *Cursor, path string, ref seekRef, ts int64) {
	t.Helper()
	if err := c.SeekTime(ts); err != nil {
		t.Fatalf("%s: SeekTime(%d): %v", path, ts, err)
	}
	e, err := c.Next()
	want := ref.at(ts)
	switch {
	case want == nil:
		if err != io.EOF {
			t.Fatalf("%s: SeekTime(%d) past the last entry then Next: %v, want EOF", path, ts, err)
		}
	case err != nil:
		t.Fatalf("%s: SeekTime(%d) then Next: %v", path, ts, err)
	case e.Block != want.Block || e.Index != want.Index || !bytes.Equal(e.Data, want.Data):
		t.Fatalf("%s: SeekTime(%d) returned %q at (%d,%d), want %q at (%d,%d)",
			path, ts, e.Data, e.Block, e.Index, want.Data, want.Block, want.Index)
	}
}

// TestSeekTimeAcrossDamagedBlock: a block inside the last span of the time
// search cannot date itself; the search reads it as later than any time
// and lands at or before it, and the forward scan slides past it. Every
// seek, on the parent log and on a sublog, returns what a linear scan that
// skips the damaged block returns.
func TestSeekTimeAcrossDamagedBlock(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, "/p")
	a := mustCreate(t, s, "/p/a")
	b := mustCreate(t, s, "/p/b")
	other := mustCreate(t, s, "/other")
	var stamps []int64
	for i := 0; i < 400; i++ {
		id := []uint16{a, b, other}[i%3]
		stamps = append(stamps, mustAppend(t, s, id, fmt.Sprintf("e%03d-padding", i), AppendOptions{Timestamped: i%2 == 0}))
	}
	// Global data block 4k+2 sits inside a last span (landmarks are the
	// multiples of N=4), and both logs read below have entries in it.
	paths := []string{"/p", "/p/a"}
	bad := s.End()/2/4*4 + 2
	for _, path := range paths {
		if !slices.ContainsFunc(readAll(t, s, path), func(e *Entry) bool { return e.Block == bad }) {
			t.Fatalf("%s has no entry in block %d", path, bad)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Damage(bad+1, nil); err != nil { // +1: volume header block
		t.Fatal(err)
	}
	s2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, path := range paths {
		ref := seekRef(readAll(t, s2, path))
		if slices.ContainsFunc(ref, func(e *Entry) bool { return e.Block == bad }) {
			t.Fatalf("%s: the linear scan read an entry of damaged block %d", path, bad)
		}
		c, err := s2.OpenCursor(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range stamps {
			checkSeek(t, c, path, ref, ts)
			checkSeek(t, c, path, ref, ts+1)
		}
	}
}

// TestSeekTimeColdReplay is the time search in the shape of the seek_cold
// benchmark, in one process and one goroutine: a store of about 1.7k 1 KiB
// blocks behind a 64-block cache, two sparse leaf sublogs, and 4,000
// SeekTime+Next at seeded instants. Every seek must return what a linear
// scan returns, and the footers dated and device blocks read per seek stay
// under bounds a linear last-span walk exceeds.
func TestSeekTimeColdReplay(t *testing.T) {
	const (
		preload = 11400
		seeks   = 4000
	)
	tc := &testClock{}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 1024, Capacity: 1 << 12})
	s, err := New(dev, Options{BlockSize: 1024, CacheBlocks: 64, Now: tc.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := workload.NewMixedTrace(1024, []workload.Trace{
		workload.NewLoginTrace(1025, 16),
		workload.NewMailTrace(1026, 8),
		workload.NewTxnTrace(1027, 64),
	}, []int{8, 1, 3})
	ids := map[string]uint16{}
	for _, path := range tr.Logs() {
		ids[path] = mustCreate(t, s, path)
	}
	var tMin, tMax int64
	for i := 0; i < preload; i++ {
		op := tr.Next()
		ts, err := s.Append(ids[op.Log], op.Data, AppendOptions{Timestamped: op.Timestamped})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tMin = ts
		}
		tMax = ts
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/sessions/user00", "/sessions/user01"}
	refs := make([]seekRef, len(paths))
	curs := make([]*Cursor, len(paths))
	for i, p := range paths {
		refs[i] = readAll(t, s, p)
		if len(refs[i]) == 0 {
			t.Fatalf("%s is empty", p)
		}
		if curs[i], err = s.OpenCursor(p); err != nil {
			t.Fatal(err)
		}
	}
	blocks := s.End()
	s.ResetCounters()
	s.ResetLocateStats()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < seeks; i++ {
		k := i % len(paths)
		checkSeek(t, curs[k], paths[k], refs[k], tMin+rng.Int63n(tMax-tMin+1))
	}
	loc, cs, ds := s.LocateStats(), s.CacheStats(), s.DeviceStats()
	tsPerSeek := float64(loc.TimestampReads) / seeks
	readsPerSeek := float64(ds.Reads) / seeks
	t.Logf("%d blocks, %d seeks: %.2f timestamp reads/seek, %.2f device reads/seek, %.2f entrymap entries/seek, cache hit ratio %.3f (%d hits, %d misses)",
		blocks, seeks, tsPerSeek, readsPerSeek, float64(loc.EntriesExamined)/seeks, cs.HitRatio(), cs.Hits, cs.Misses)
	// One descent dates 11.8 footers and reads 7.3 device blocks per seek
	// here; a linear walk of the last span dates 16.3 and reads 12.3.
	if tsPerSeek > 13 {
		t.Errorf("%.2f timestamp reads per seek, want <= 13", tsPerSeek)
	}
	if readsPerSeek > 9 {
		t.Errorf("%.2f device reads per seek, want <= 9", readsPerSeek)
	}
}
