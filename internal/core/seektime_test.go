package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"clio/internal/blockfmt"
	"clio/internal/cache"
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
	// One descent dates 11.8 footers per seek here (a linear walk of the
	// last span dates 16.3). A block is read at most once for its date, so
	// a seek reads 3.05 device blocks; re-reading every evicted block it
	// dates read 7.3.
	if tsPerSeek > 13 {
		t.Errorf("%.2f timestamp reads per seek, want <= 13", tsPerSeek)
	}
	if readsPerSeek > 4 {
		t.Errorf("%.2f device reads per seek, want <= 4", readsPerSeek)
	}
	if cs.DateHits == 0 {
		t.Error("no probe was served from the date table")
	}
}

// seekEach runs checkSeek at every entry's timestamp and one past it.
func seekEach(t *testing.T, c *Cursor, path string, ref seekRef) {
	t.Helper()
	for _, e := range ref {
		checkSeek(t, c, path, ref, e.Timestamp)
		checkSeek(t, c, path, ref, e.Timestamp+1)
	}
}

// TestSeekTimeWarmTableAcrossCompaction: seeks date every block they probe,
// then a compaction relocates the live entries and demotes the volumes they
// came from to the cold tier. With the dates still held, every seek returns
// what a linear scan of the compacted store returns.
func TestSeekTimeWarmTableAcrossCompaction(t *testing.T) {
	h := newColdHarness(16)
	s := h.open(t, CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2})
	defer s.Close()
	keep := mustCreate(t, s, "/keep")
	dead := mustCreate(t, s, "/dead")
	fillVolumes(t, s, keep, dead, 5)
	if err := s.Retire("/dead"); err != nil {
		t.Fatal(err)
	}
	c, err := s.OpenCursor("/keep")
	if err != nil {
		t.Fatal(err)
	}
	seekEach(t, c, "/keep", readAll(t, s, "/keep"))
	dated := s.CacheStats().Dates
	if dated == 0 {
		t.Fatal("the seeks dated no block")
	}
	res, err := s.CompactOnce(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VolumesReloc == 0 || res.VolumesDemoted == 0 {
		t.Fatalf("no volume relocated and demoted: %+v", res)
	}
	if got := s.CacheStats().Dates; got < dated {
		t.Fatalf("compaction dropped dates: %d held, %d before", got, dated)
	}
	hits := s.CacheStats().DateHits
	seekEach(t, c, "/keep", readAll(t, s, "/keep"))
	if s.CacheStats().DateHits == hits {
		t.Error("no seek after the compaction used a date noted before it")
	}
}

// TestSeekTimeWarmTableDamagedAfterDated: a block is dated, its image is
// evicted, and then the block is damaged on the device. The search keeps
// using the date (it came from the image as written); the forward scan
// slides past the block it can no longer read, so every seek returns what
// a linear scan of the damaged store returns.
func TestSeekTimeWarmTableDamagedAfterDated(t *testing.T) {
	tc := &testClock{}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, Options{BlockSize: 256, Degree: 4, CacheBlocks: 8, Now: tc.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCreate(t, s, "/p")
	a := mustCreate(t, s, "/p/a")
	b := mustCreate(t, s, "/p/b")
	for i := 0; i < 400; i++ {
		mustAppend(t, s, []uint16{a, b}[i%2], fmt.Sprintf("e%03d-padding", i), AppendOptions{Timestamped: i%2 == 0})
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/p", "/p/a"}
	curs := make([]*Cursor, len(paths))
	for i, path := range paths {
		if curs[i], err = s.OpenCursor(path); err != nil {
			t.Fatal(err)
		}
		seekEach(t, curs[i], path, readAll(t, s, path))
	}
	bad := s.End()/2/4*4 + 2 // inside a last span, holding entries of both logs
	key := cache.Key{Block: bad}
	if _, _, err := (*locatorSource)(s).BlockFirstTS(bad); err != nil {
		t.Fatal(err)
	}
	date, ok := s.blockCache().Date(key)
	if !ok {
		t.Fatalf("block %d was not dated", bad)
	}
	for g := 0; g < s.End(); g++ { // every other block: more than the cache's 8
		if g == bad {
			continue
		}
		if _, err := s.readBlock(g); err != nil {
			t.Fatal(err)
		}
	}
	if s.blockCache().Lookup(key) != nil {
		t.Fatalf("block %d's image is still cached", bad)
	}
	if err := dev.Damage(bad+1, nil); err != nil { // +1: volume header block
		t.Fatal(err)
	}
	for i, path := range paths {
		ref := seekRef(readAll(t, s, path))
		if slices.ContainsFunc(ref, func(e *Entry) bool { return e.Block == bad }) {
			t.Fatalf("%s: the linear scan read an entry of damaged block %d", path, bad)
		}
		seekEach(t, curs[i], path, ref)
	}
	if got, ok := s.blockCache().Date(key); !ok || got != date {
		t.Errorf("damaged block %d's date reads %d, %v; want the %d noted before", bad, got, ok, date)
	}
}

// stalledDev stalls device writes while hold is locked: the seal pipeline
// fills behind its head, and the writes go on when it is unlocked.
type stalledDev struct {
	*wodev.MemDevice
	hold sync.Mutex
}

func (d *stalledDev) WriteAt(idx int, data []byte) error {
	d.hold.Lock()
	d.hold.Unlock()
	return d.MemDevice.WriteAt(idx, data)
}

// TestSeekTimeSlideNeverDatesUnsealed: the search dates the staged tail and
// pipelined seals too, but a slide renumbers them, so the date table must
// never hold a date for a block at or above the sealed end. Probes run
// while seals are stalled in the pipeline and while the head's write slides
// past two damaged blocks, renumbering every block behind it; afterwards
// every date held is the block's own, and every seek matches a linear scan.
func TestSeekTimeSlideNeverDatesUnsealed(t *testing.T) {
	tc := &testClock{}
	dev := &stalledDev{MemDevice: wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})}
	s, err := New(dev, Options{BlockSize: 256, Degree: 4, Now: tc.Now, NVRAM: NewMemNVRAM()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/s")
	ls := (*locatorSource)(s)
	// probeAll dates every readable block, then checks no date is held at
	// or above the sealed end. The end is sampled after the dates are read,
	// and it only grows, so a date seen above it was never a sealed block's.
	probeAll := func() {
		end := s.End()
		for g := 0; g < end; g++ {
			if _, _, err := ls.BlockFirstTS(g); err != nil {
				t.Error(err)
				return
			}
		}
		var held []int
		for g := 0; g < end+4; g++ {
			if _, ok := s.blockCache().Date(cache.Key{Block: g}); ok {
				held = append(held, g)
			}
		}
		if sealed := s.snap().sealedEnd; len(held) > 0 && held[len(held)-1] >= sealed {
			t.Errorf("dates held for blocks %v, sealed end %d", held, sealed)
		}
	}
	n := 0
	appendSome := func(k int) {
		for ; k > 0; k-- {
			mustAppend(t, s, id, fmt.Sprintf("s%04d-padding-padding", n), AppendOptions{Timestamped: n%3 == 0})
			n++
		}
	}
	appendSome(60)
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	probeAll()

	dev.hold.Lock()
	for len(s.snap().pipe) < 3 {
		appendSome(1)
	}
	probeAll()
	if t.Failed() {
		dev.hold.Unlock()
		t.FailNow()
	}
	// The head is stalled on its device write; the blocks it and the next
	// one would land on are damaged, so it slides twice.
	w := dev.Written()
	for _, idx := range []int{w, w + 1} {
		if err := dev.Damage(idx, nil); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			probeAll()
		}
	}()
	dev.hold.Unlock()
	if err := sealTail(s); err != nil && !IsDegraded(err) {
		t.Fatal(err)
	}
	<-done
	if st := s.Stats(); st.DeadBlocks != 2 {
		t.Fatalf("%d dead blocks, want the 2 damaged", st.DeadBlocks)
	}
	probeAll()
	for g := 0; g < s.End(); g++ {
		date, ok := s.blockCache().Date(cache.Key{Block: g})
		if !ok {
			continue
		}
		img, err := s.readBlock(g)
		if err != nil {
			t.Fatalf("dated block %d unreadable: %v", g, err)
		}
		if ts, _, _ := blockfmt.FirstTimestamp(img); ts != date {
			t.Errorf("block %d dated %d, its footer says %d", g, date, ts)
		}
	}
	c, err := s.OpenCursor("/s")
	if err != nil {
		t.Fatal(err)
	}
	seekEach(t, c, "/s", readAll(t, s, "/s"))
}

// checkSeekLike runs SeekTime(ts) then Next, and SeekTime(ts) then Prev, on
// the selective cursor c and on lin, a cursor over the same logs that reads
// every block, and requires the same entries of both.
func checkSeekLike(t *testing.T, c, lin *Cursor, ts int64) {
	t.Helper()
	for _, step := range []func(*Cursor) (*Entry, error){(*Cursor).Next, (*Cursor).Prev} {
		var got [2]*Entry
		for i, cur := range []*Cursor{c, lin} {
			if err := cur.SeekTime(ts); err != nil {
				t.Fatalf("SeekTime(%d): %v", ts, err)
			}
			e, err := step(cur)
			if err != nil && err != io.EOF {
				t.Fatalf("SeekTime(%d) then a step: %v", ts, err)
			}
			got[i] = e
		}
		if (got[0] == nil) != (got[1] == nil) ||
			got[0] != nil && (got[0].Timestamp != got[1].Timestamp || !bytes.Equal(got[0].Data, got[1].Data)) {
			t.Fatalf("SeekTime(%d) then a step: %+v, a linear cursor %+v", ts, got[0], got[1])
		}
	}
}

// linearCursor opens a cursor over path that reads every block, as one whose
// set holds the entrymap log does.
func linearCursor(t *testing.T, s *Service, path string) *Cursor {
	t.Helper()
	c, err := s.OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	c.linear = true
	return c
}

// TestSeekTimeAsksEntrymapFirst: with the cache flushed before each seek, a
// cursor over a sparse sublog does not decode the block the time search
// lands on when the entrymap shows none of its logs there, and every
// SeekTime+Next and SeekTime+Prev answers as a linear cursor does.
func TestSeekTimeAsksEntrymapFirst(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	dense := mustCreate(t, s, "/dense")
	sparse := mustCreate(t, s, "/sparse")
	for i := 0; i < 1200; i++ {
		id := dense
		if i%60 == 7 {
			id = sparse
		}
		mustAppend(t, s, id, fmt.Sprintf("e%04d-padding", i), AppendOptions{Timestamped: i%3 == 0})
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	c, err := s.OpenCursor("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	lin := linearCursor(t, s, "/sparse")
	var stamps []int64
	for _, e := range readAll(t, s, "/dense") {
		stamps = append(stamps, e.Timestamp, e.Timestamp+1)
	}
	skipped := 0
	for _, ts := range stamps {
		b, err := s.locFindByTime(ts - 1)
		if err != nil || b < 0 {
			continue
		}
		db, err := s.decodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		holds := false
		var r blockfmt.RecordView
		for i := range db.p.Len() {
			db.p.Record(i, &r)
			holds = holds || r.LogID == sparse
		}
		s.FlushCache()
		if err := c.SeekTime(ts); err != nil {
			t.Fatal(err)
		}
		if _, dec := s.blockCache().LookupDecoded(cache.Key{Block: b}); dec != nil && !holds {
			t.Fatalf("SeekTime(%d) decoded block %d, which holds no /sparse entry", ts, b)
		}
		if !holds {
			skipped++
		}
		checkSeekLike(t, c, lin, ts)
	}
	if skipped == 0 {
		t.Fatal("no seek landed on a block without /sparse entries")
	}
}

// TestSeekTimeAsksEntrymapFirstAcrossCompaction: a compaction relocates a
// sparse log's entries out of the volumes it demotes, so the selective
// cursor serves them through its redirect while the linear one reads the
// demoted originals; every SeekTime+Next and SeekTime+Prev agrees.
func TestSeekTimeAsksEntrymapFirstAcrossCompaction(t *testing.T) {
	h := newColdHarness(16)
	s := h.open(t, CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2})
	defer s.Close()
	keep := mustCreate(t, s, "/keep")
	dead := mustCreate(t, s, "/dead")
	fillVolumes(t, s, keep, dead, 5)
	if err := s.Retire("/dead"); err != nil {
		t.Fatal(err)
	}
	res, err := s.CompactOnce(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VolumesReloc == 0 || res.VolumesDemoted == 0 {
		t.Fatalf("no volume relocated and demoted: %+v", res)
	}
	c, err := s.OpenCursor("/keep")
	if err != nil {
		t.Fatal(err)
	}
	lin := linearCursor(t, s, "/keep")
	redirected := 0
	for _, e := range readAll(t, s, "/keep") {
		for _, ts := range []int64{e.Timestamp - 1, e.Timestamp, e.Timestamp + 1} {
			s.FlushCache()
			if err := c.SeekTime(ts); err != nil {
				t.Fatal(err)
			}
			if c.redir != nil {
				redirected++
			}
			checkSeekLike(t, c, lin, ts)
		}
	}
	if redirected == 0 {
		t.Fatal("no seek ended inside a compacted volume's copies")
	}
}
