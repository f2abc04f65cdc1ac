package core

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/entrymap"
	"clio/internal/obs"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// zeroCopySetup builds a service with a few sealed blocks — enough to span
// several level-1 entrymap boundaries — and returns it along with the
// (block, index) of a sealed, unfragmented entry.
func zeroCopySetup(t testing.TB) (*Service, int, int) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: opt.BlockSize, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	switch tt := t.(type) {
	case *testing.T:
		tt.Cleanup(func() { s.Close() })
	case *testing.B:
		tt.Cleanup(func() { s.Close() })
	}
	id, err := s.CreateLog("/zc", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Append(id, []byte(fmt.Sprintf("payload-%03d", i)), AppendOptions{}); err != nil && !IsDegraded(err) {
			t.Fatal(err)
		}
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	// Find a sealed entry to read back.
	var e Entry
	for b := 0; b < s.endShared(); b++ {
		db, err := s.decodeBlock(b)
		if err != nil {
			continue
		}
		var r blockfmt.RecordView
		for i := range db.p.Len() {
			db.p.Record(i, &r)
			if r.LogID == id && !r.Continued && !r.Continues {
				if err := s.readAtInto(b, i, &e); err == nil {
					return s, b, i
				}
			}
		}
	}
	t.Fatal("no sealed unfragmented entry found")
	return nil, 0, 0
}

// TestZeroCopyWarmRead verifies both halves of the zero-copy contract: a
// warm readAtInto performs no allocations, and the Entry.Data it returns is
// a subslice of the cache-owned block image rather than a copy.
func TestZeroCopyWarmRead(t *testing.T) {
	s, block, index := zeroCopySetup(t)

	var e Entry
	if err := s.readAtInto(block, index, &e); err != nil { // warm the decode
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.readAtInto(block, index, &e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm readAtInto allocated %.1f objects/op, want 0", allocs)
	}

	// e.Data must alias the cached block image, not a copy of it.
	img := s.blockCache().Lookup(cache.Key{Block: block})
	if img == nil {
		t.Fatal("block image not cached after warm read")
	}
	if !imageAliases(img, e.Data) {
		t.Fatalf("Entry.Data does not alias the cached block image")
	}
}

// TestZeroCopyCursorWarmNext verifies that a cursor re-walking a sealed
// region reuses cache-attached decodes: the second pass must not re-parse
// (no per-block allocation beyond the Entry values themselves).
func TestZeroCopyCursorWarmNext(t *testing.T) {
	s, _, _ := zeroCopySetup(t)
	c, err := s.OpenCursor("/zc")
	if err != nil {
		t.Fatal(err)
	}
	first := 0
	for {
		e, err := c.Next()
		if err != nil {
			break
		}
		_ = e
		first++
	}
	c.SeekStart()
	second := 0
	for {
		e, err := c.Next()
		if err != nil {
			break
		}
		if len(e.Data) == 0 {
			t.Fatal("empty entry data")
		}
		second++
	}
	if first == 0 || first != second {
		t.Fatalf("cursor passes disagree: %d then %d", first, second)
	}
}

// imageAliases reports whether b lies inside img.
func imageAliases(img, b []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(img)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= start && p+uintptr(len(b)) <= start+uintptr(len(img))
}

// TestZeroCopyEntrymapProbe verifies the locator's entrymap probe of a
// cache-resident sealed block: once the block is decoded, a probe and the
// bitmap union behind it allocate nothing.
func TestZeroCopyEntrymapProbe(t *testing.T) {
	s, _, _ := zeroCopySetup(t)
	ls := (*locatorSource)(s)
	boundary := s.opt.Degree
	if boundary >= s.snap().sealedEnd {
		t.Fatalf("setup sealed only %d blocks, need more than %d", s.snap().sealedEnd, boundary)
	}
	id, err := s.cat.Resolve("/zc")
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := ls.ViewAt(1, boundary) // warm: decodes the block
	if err != nil || !ok {
		t.Fatalf("ViewAt(1, %d) = %v, %v", boundary, ok, err)
	}
	ids, buf := []uint16{id}, make(wire.Bitmap, entrymap.MaxDegree/8)
	if bits := v.Union(ids, buf); bits.Empty() {
		t.Fatalf("level-1 entry at %d has no bitmap for /zc", boundary)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if v, ok, err := ls.ViewAt(1, boundary); err != nil || !ok || v.Union(ids, buf) == nil {
			t.Fatal("warm ViewAt lost the entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ViewAt allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEntrymapProbe measures that probe; like BenchmarkReadAtWarm it
// must report 0 allocs/op.
func BenchmarkEntrymapProbe(b *testing.B) {
	s, _, _ := zeroCopySetup(b)
	ls := (*locatorSource)(s)
	boundary := s.opt.Degree
	id, err := s.cat.Resolve("/zc")
	if err != nil {
		b.Fatal(err)
	}
	ids, buf := []uint16{id}, make(wire.Bitmap, entrymap.MaxDegree/8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v, ok, err := ls.ViewAt(1, boundary); err != nil || !ok || v.Union(ids, buf) == nil {
			b.Fatal("ViewAt lost the entry")
		}
	}
}

// TestZeroCopyTimestampProbe verifies the time search's probe: it dates a
// block from the footer of its raw image, so on a cached block it allocates
// nothing — and neither does the whole search, per-call locator included —
// while on a miss it costs what reading the image costs and leaves the image
// cached with no decode attached: a block is decoded by a reader that wants
// its records.
func TestZeroCopyTimestampProbe(t *testing.T) {
	s, block, _ := zeroCopySetup(t)
	ls := (*locatorSource)(s)
	db, err := s.decodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	want := db.p.FirstTimestamp
	probe := func() {
		if ts, ok, err := ls.BlockFirstTS(block); err != nil || !ok || ts != want {
			t.Fatalf("BlockFirstTS(%d) = %d, %v, %v; want %d", block, ts, ok, err, want)
		}
	}
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Fatalf("BlockFirstTS of a cached block allocated %.1f objects/op, want 0", allocs)
	}
	for b := 0; b < s.endShared(); b++ { // every block cached
		if _, err := s.readBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	stats0 := s.LocateStats()
	allocs := testing.AllocsPerRun(200, func() {
		if b, err := s.locFindByTime(want); err != nil || b != block {
			t.Fatalf("locFindByTime(%d) = %d, %v; want block %d", want, b, err, block)
		}
	})
	if allocs != 0 {
		t.Fatalf("a time search over cached blocks allocated %.1f objects/op, want 0", allocs)
	}
	if s.LocateStats().TimestampReads == stats0.TimestampReads {
		t.Fatal("the searches counted no timestamp reads")
	}

	key := cache.Key{Block: block}
	image := missAllocs(s, block, func() {
		if _, err := s.readBlock(block); err != nil {
			t.Fatal(err)
		}
	})
	if got := missAllocs(s, block, probe); got != image {
		t.Fatalf("BlockFirstTS on a miss allocated %.1f objects/op, reading the image alone %.1f", got, image)
	}
	if img, dec := s.blockCache().LookupDecoded(key); img == nil || dec != nil {
		t.Fatalf("after a missed probe: image cached %v, decode attached %v; want the image alone", img != nil, dec != nil)
	}
}

// missAllocs is what read allocates on a miss of block. Before each run the
// cache is flushed and a date noted for the block's neighbour, so the date
// table holds the block's page again, as it does after the block alone is
// evicted; what that costs is measured apart and taken off.
func missAllocs(s *Service, block int, read func()) float64 {
	cold := func() {
		s.FlushCache()
		s.blockCache().NoteDate(cache.Key{Block: block ^ 1}, 1)
	}
	base := testing.AllocsPerRun(50, cold)
	return testing.AllocsPerRun(50, func() { cold(); read() }) - base
}

// TestZeroCopyMissAdopts pins the miss path's hand-off of its buffer to the
// cache: readBlock returns the cache's own image, so the decode made of a
// missed block on its first read stays attached (the block is parsed once),
// and a missed probe costs the image and the cache entry, nothing more.
func TestZeroCopyMissAdopts(t *testing.T) {
	s, block, _ := zeroCopySetup(t)
	key := cache.Key{Block: block}
	s.FlushCache()
	read, err := s.readBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if img := s.blockCache().Lookup(key); img == nil || &img[0] != &read[0] || len(img) != len(read) {
		t.Fatal("a missed readBlock returned another slice than the image it cached")
	}
	s.FlushCache()
	db, err := s.decodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if _, dec := s.blockCache().LookupDecoded(key); dec != db {
		t.Fatalf("after decoding a missed block: decode attached %v, want the decode just made", dec != nil)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.decodeBlock(block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding the block again allocated %.1f objects/op, want 0", allocs)
	}
	ls := (*locatorSource)(s)
	if allocs := missAllocs(s, block, func() {
		if _, ok, err := ls.BlockFirstTS(block); err != nil || !ok {
			t.Fatalf("BlockFirstTS(%d) = %v, %v", block, ok, err)
		}
	}); allocs > 2 {
		t.Fatalf("BlockFirstTS on a miss allocated %.1f objects/op, want at most 2 (the image, the cache entry)", allocs)
	}
}

// storeRecorder is a staging NVRAM that remembers the image of its last
// tail Store.
type storeRecorder struct {
	*MemNVRAM
	last []byte
}

func (r *storeRecorder) Store(global int, image []byte) error {
	r.last = image
	return r.MemNVRAM.Store(global, image)
}

// TestZeroCopyForceSharesTailImage pins the writer side of the hand-off: the
// tail image a forced append seals for the NVRAM store is the one the reader
// snapshot publishes, and the block cache holds no image of the unsealed
// tail, so a force costs one block image, not two.
func TestZeroCopyForceSharesTailImage(t *testing.T) {
	const blockSize = 1024
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 12})
	nv := &storeRecorder{MemNVRAM: NewMemNVRAM()}
	s, err := New(dev, Options{BlockSize: blockSize, NVRAM: nv, Now: (&testClock{}).Now})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	id, err := s.CreateLog("/forced", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	force := func() {
		if _, err := s.Append(id, payload, AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	force()
	sn := s.snap()
	if img := sn.image(); nv.last == nil || &img[0] != &nv.last[0] {
		t.Fatal("the snapshot's tail image is not the one the force stored in NVRAM")
	}
	if s.blockCache().Lookup(cache.Key{Block: sn.tailGlobal}) != nil {
		t.Fatal("the block cache holds an image of the unsealed tail")
	}
	const forces = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < forces; i++ {
		force()
	}
	runtime.ReadMemStats(&after)
	perForce := float64(after.TotalAlloc-before.TotalAlloc) / forces
	t.Logf("%.0f bytes allocated per force", perForce)
	if perForce >= 2*blockSize {
		t.Fatalf("a force allocated %.0f bytes, want under two %d-byte block images", perForce, blockSize)
	}
}

// BenchmarkTimestampProbe measures that probe on a cached block; it must
// report 0 allocs/op.
func BenchmarkTimestampProbe(b *testing.B) {
	s, block, _ := zeroCopySetup(b)
	ls := (*locatorSource)(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := ls.BlockFirstTS(block); err != nil || !ok {
			b.Fatal("BlockFirstTS lost the block")
		}
	}
}

// BenchmarkReadAtWarm measures the warm zero-copy read path; the CI bench
// gate asserts 0 allocs/op from this benchmark's output.
func BenchmarkReadAtWarm(b *testing.B) {
	s, block, index := zeroCopySetup(b)
	var e Entry
	if err := s.readAtInto(block, index, &e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.readAtInto(block, index, &e); err != nil {
			b.Fatal(err)
		}
	}
}

// parentStepSetup builds a service whose /sessions log has 16 sublogs — 17
// ids, as the scan_live workload's — written in runs between runs of a log
// beside it, all sealed, and returns a warm cursor over /sessions (every
// block it visits decoded and cached) with the blocks its block steps go
// between: those holding a record or fragment of the set, ascending.
func parentStepSetup(tb testing.TB) (*Service, *Cursor, []int) {
	s, _, _ := zeroCopySetup(tb)
	if _, err := s.CreateLog("/sessions", 0o644, "test"); err != nil {
		tb.Fatal(err)
	}
	subs := make([]uint16, 16)
	for i := range subs {
		var err error
		if subs[i], err = s.CreateLog(fmt.Sprintf("/sessions/user%02d", i), 0o644, "test"); err != nil {
			tb.Fatal(err)
		}
	}
	beside, err := s.CreateLog("/beside", 0o644, "test")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		id := beside
		if (i/30)%2 == 0 {
			id = subs[i%len(subs)]
		}
		if _, err := s.Append(id, []byte(fmt.Sprintf("entry-%04d", i)), AppendOptions{}); err != nil && !IsDegraded(err) {
			tb.Fatal(err)
		}
	}
	if err := sealTail(s); err != nil {
		tb.Fatal(err)
	}
	c, err := s.OpenCursor("/sessions")
	if err != nil {
		tb.Fatal(err)
	}
	for { // warm
		if _, err := c.Next(); err == io.EOF {
			break
		} else if err != nil {
			tb.Fatal(err)
		}
	}
	// Every block holding a record or fragment of the set, by scanning them.
	var starts []int
	for b := 0; b < s.endShared(); b++ {
		if ok, err := (*locatorSource)(s).BlockContains(b, c.idSorted); err != nil {
			tb.Fatal(err)
		} else if ok {
			starts = append(starts, b)
		}
	}
	return s, c, starts
}

// TestZeroCopyParentBlockStep pins the cost of the block steps of a cursor
// over a 17-id parent log: one locator descent per run of blocks — a step
// inside the written level-1 span the last search answered from searches
// nothing, a step out of it runs one search (one locate sample) — at most
// one entrymap entry per level on the way up and one on the way down per
// search — the per-id steps this replaced examined every entry once per
// member id — and, warm, no allocation at all.
func TestZeroCopyParentBlockStep(t *testing.T) {
	s, c, starts := parentStepSetup(t)
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	end := s.endShared()
	n := s.opt.Degree
	levels := entrymap.MaxLevel(n, end) + 1
	if len(starts) < 10 {
		t.Fatalf("the scan visited %d blocks, want a few runs of them", len(starts))
	}
	var stepExamined, perIDExamined, searches, inRun int
	c.block, c.rec = starts[0], 0
	c.run = entrymap.Run{}
	for i, b := range starts {
		want := end
		if i+1 < len(starts) {
			want = starts[i+1]
		}
		st0, n0 := s.LocateStats(), histCount(reg, "clio_core_locate_seconds")
		if err := c.advanceBlock(end, -1); err != nil {
			t.Fatal(err)
		}
		if c.block != want {
			t.Fatalf("step from block %d went to %d, the next block of the set is %d", b, c.block, want)
		}
		// The step before this one searched from inside b's span, or
		// stepped through it, so its run is b's span when that is written.
		wantSearches := 1
		if i > 0 && want/n == b/n && (b/n+1)*n < end {
			wantSearches = 0
			inRun++
		}
		got := histCount(reg, "clio_core_locate_seconds") - n0
		if int(got) != wantSearches {
			t.Fatalf("step from block %d to %d ran %d searches, want %d", b, want, got, wantSearches)
		}
		searches += int(got)
		st := s.LocateStats()
		examined := st.EntriesExamined - st0.EntriesExamined + st.PendingExamined - st0.PendingExamined
		if examined > 2*levels*wantSearches {
			t.Fatalf("step from block %d examined %d entrymap entries, want at most %d (%d levels, up and down, per search)", b, examined, 2*levels*wantSearches, levels)
		}
		stepExamined += examined
		for _, id := range c.idSorted { // what the per-id step did
			st0 = s.LocateStats()
			if _, _, err := s.locFindNext([]uint16{id}, b+1); err != nil {
				t.Fatal(err)
			}
			st = s.LocateStats()
			perIDExamined += st.EntriesExamined - st0.EntriesExamined + st.PendingExamined - st0.PendingExamined
		}
	}
	if inRun == 0 || searches >= len(starts) {
		t.Fatalf("%d steps ran %d searches, %d of them inside a run: the runs saved nothing", len(starts), searches, inRun)
	}
	if stepExamined*len(c.idSorted)/2 > perIDExamined {
		t.Fatalf("%d steps examined %d entrymap entries; searching id by id examined %d — want under 2/%d of that",
			len(starts), stepExamined, perIDExamined, len(c.idSorted))
	}
	t.Logf("%d steps over %d ids: %d searches, %d entrymap entries examined, %d id by id", len(starts), len(c.idSorted), searches, stepExamined, perIDExamined)
	allocs := testing.AllocsPerRun(50, func() {
		for _, b := range starts {
			c.block, c.rec = b, 0
			if err := c.advanceBlock(end, -1); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d warm parent block steps allocated %.1f objects, want 0", len(starts), allocs)
	}
}

// BenchmarkParentCursorStep measures one warm block step of a cursor over a
// 17-id parent log; it must report 0 allocs/op.
func BenchmarkParentCursorStep(b *testing.B) {
	s, c, starts := parentStepSetup(b)
	end := s.endShared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.block, c.rec = starts[i%len(starts)], 0
		if err := c.advanceBlock(end, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCursorFillWarm is the server's refill as core runs it: a warm
// cursor over /sessions (17 ids, every block decoded and cached) visiting
// entries in batches of up to 256, restarting at the end of the log. One op
// is one entry visited; the visitor reads the entry in place. It allocates
// nothing: an entry whose fragments cross blocks is joined in the cursor's
// own buffer, and a block step inside a run searches nothing.
func BenchmarkCursorFillWarm(b *testing.B) {
	_, c, _ := parentStepSetup(b)
	c.SeekStart()
	var sum int
	visit := func(e *Entry) bool { sum += len(e.Data); return true }
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		k, err := c.NextEach(min(b.N-n, 256), visit)
		n += k
		if err == io.EOF {
			c.SeekStart()
		} else if err != nil {
			b.Fatal(err)
		}
	}
	if sum == 0 {
		b.Fatal("no data visited")
	}
}

// TestZeroCopyDecodeFootprint holds a cached block's decode to what it is
// meant to cost beyond the block image: a fixed header of at most 96 bytes
// plus 2 bytes a record, with no pointer in the per-record index for the
// garbage collector to follow, in 2 allocations — 2 more in the few blocks
// entrymap entries land in, for the list of their views. It decodes 1,000
// sealed 1 KiB blocks of a store written with a mix of minimal,
// timestamped, forced and multi-member entries of 1 to 120 bytes.
func TestZeroCopyDecodeFootprint(t *testing.T) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(blockfmt.Parsed{})) {
		if typ := f.Type; !pointerFree(typ) && (typ.Kind() != reflect.Slice || !pointerFree(typ.Elem())) {
			t.Errorf("Parsed.%s is a %v: the GC would mark what it points to", f.Name, typ)
		}
	}

	const blocks = 1000
	tc := &testClock{}
	opt := Options{BlockSize: 1024, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: opt.BlockSize, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint16{mustCreate(t, s, "/a"), mustCreate(t, s, "/b"), mustCreate(t, s, "/b/c")}
	payload := make([]byte, 120)
	for i := 0; s.snap().sealedEnd < blocks+1; i++ {
		id := ids[i%len(ids)]
		data := payload[:1+i*37%120]
		opts := AppendOptions{Timestamped: i%5 == 0, Forced: i%97 == 0}
		if i%11 == 0 {
			_, err = s.AppendMulti([]uint16{id, ids[(i+1)%len(ids)]}, data, opts)
		} else {
			_, err = s.Append(id, data, opts)
		}
		if err != nil && !IsDegraded(err) {
			t.Fatal(err)
		}
	}
	imgs := make([][]byte, blocks)
	for b := range imgs {
		if imgs[b], err = s.readBlock(b + 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // nothing else allocates while decodes are counted
		t.Fatal(err)
	}

	dbs := make([]*decodedBlock, blocks)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b, img := range imgs {
		dbs[b], err = decode(img)
		if err != nil {
			break
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	records, indexBlocks := 0, 0
	for _, db := range dbs {
		records += db.p.Len()
		if db.emap != nil {
			indexBlocks++
		}
	}
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d blocks (%d with entrymap entries), %d records: %d B and %d allocations beyond the images",
		blocks, indexBlocks, records, bytes, allocs)
	if limit := uint64(96*blocks + 2*records); bytes > limit {
		t.Errorf("decodes took %d B, want at most %d (96 B a block plus 2 B a record)", bytes, limit)
	}
	if limit := uint64(2*blocks + 2*indexBlocks); allocs > limit {
		t.Errorf("decodes made %d allocations, want at most %d (2 a block, 2 more a block with entrymap entries)", allocs, limit)
	}
}

// pointerFree reports whether a value of type t holds no pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}
