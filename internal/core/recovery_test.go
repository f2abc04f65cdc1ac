package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clio/internal/cache"
	"clio/internal/wodev"
)

// crashAndReopen simulates a server crash (volatile state lost) and reopens
// the service over the same device and NVRAM.
func crashAndReopen(t *testing.T, s *Service, dev wodev.Device, opt Options) *Service {
	t.Helper()
	s.Crash()
	s2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	return s2
}

func TestRecoveryAfterCleanClose(t *testing.T) {
	for _, nvram := range []bool{true, false} {
		t.Run(fmt.Sprintf("nvram=%v", nvram), func(t *testing.T) {
			tc := &testClock{}
			opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
			if nvram {
				opt.NVRAM = NewMemNVRAM()
			}
			dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
			s, err := New(dev, opt)
			if err != nil {
				t.Fatal(err)
			}
			id := mustCreate(t, s, "/l")
			var want []string
			for i := 0; i < 60; i++ {
				p := fmt.Sprintf("entry-%02d", i)
				mustAppend(t, s, id, p, AppendOptions{})
				want = append(want, p)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open([]wodev.Device{dev}, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := datas(readAll(t, s2, "/l")); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after clean close: %d vs %d entries", len(got), len(want))
			}
			// The catalog survived: same id resolves.
			got, err := s2.Resolve("/l")
			if err != nil || got != id {
				t.Errorf("Resolve after reopen: %d, %v", got, err)
			}
		})
	}
}

func TestCrashLosesOnlyUnforcedTail(t *testing.T) {
	nv := NewMemNVRAM()
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, NVRAM: nv}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/d")
	mustAppend(t, s, id, "durable-1", AppendOptions{Forced: true})
	mustAppend(t, s, id, "durable-2", AppendOptions{Forced: true})
	mustAppend(t, s, id, "volatile", AppendOptions{}) // staged in cache only

	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	got := datas(readAll(t, s2, "/d"))
	if fmt.Sprint(got) != "[durable-1 durable-2]" {
		t.Errorf("after crash: %v", got)
	}
	// Prefix durability: nothing after a lost entry survives, and
	// everything before the last forced entry does.
	mustAppend(t, s2, id, "after-crash", AppendOptions{Forced: true})
	got = datas(readAll(t, s2, "/d"))
	if fmt.Sprint(got) != "[durable-1 durable-2 after-crash]" {
		t.Errorf("after recovery append: %v", got)
	}
}

func TestCrashWithoutNVRAMForcedSeals(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now} // no NVRAM
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/d")
	mustAppend(t, s, id, "forced", AppendOptions{Forced: true})
	st := s.Stats()
	if st.PaddingBytes == 0 {
		t.Error("forced write without NVRAM did not pad a block")
	}
	mustAppend(t, s, id, "unforced", AppendOptions{})
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	got := datas(readAll(t, s2, "/d"))
	if fmt.Sprint(got) != "[forced]" {
		t.Errorf("after crash without NVRAM: %v", got)
	}
}

func TestRecoveryExactness(t *testing.T) {
	// Invariant 3: state after crash+recover equals pre-crash durable state
	// exactly — continue writing on both and compare.
	nv := NewMemNVRAM()
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, NVRAM: nv}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 14})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, s, "/a")
	b := mustCreate(t, s, "/a/sub")
	var want []string
	for i := 0; i < 150; i++ {
		p := fmt.Sprintf("e-%03d", i)
		tgt := a
		if i%3 == 0 {
			tgt = b
		}
		mustAppend(t, s, tgt, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	if got := datas(readAll(t, s2, "/a")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered parent log: %d vs %d entries", len(got), len(want))
	}
	// Writing continues seamlessly, including across entrymap boundaries.
	for i := 150; i < 300; i++ {
		p := fmt.Sprintf("e-%03d", i)
		mustAppend(t, s2, a, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	if got := datas(readAll(t, s2, "/a")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-recovery writes: %d vs %d entries", len(got), len(want))
	}
}

func TestRepeatedCrashes(t *testing.T) {
	nv := NewMemNVRAM()
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, NVRAM: nv}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 14})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/r")
	var want []string
	for round := 0; round < 8; round++ {
		for i := 0; i < 20; i++ {
			p := fmt.Sprintf("r%d-e%02d", round, i)
			mustAppend(t, s, id, p, AppendOptions{Forced: true})
			want = append(want, p)
		}
		s = crashAndReopen(t, s, dev, opt)
	}
	defer s.Close()
	if got := datas(readAll(t, s, "/r")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after %d crashes: %d vs %d entries", 8, len(datas(readAll(t, s, "/r"))), len(want))
	}
}

func TestRecoveryWithBinarySearchEnd(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/b")
	var want []string
	for i := 0; i < 80; i++ {
		p := fmt.Sprintf("e%02d", i)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	s.Crash()
	// The reopened device no longer reports its end: §2.3.1's binary search.
	dev.SetReportEnd(false)
	s2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.LastRecovery()
	if rep.EndProbes == 0 {
		t.Error("no probes recorded; binary search did not run")
	}
	if got := datas(readAll(t, s2, "/b")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("binary-search recovery: %d vs %d", len(datas(readAll(t, s2, "/b"))), len(want))
	}
}

func TestRecoveryReportCounts(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 14})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/c")
	for i := 0; i < 200; i++ {
		mustAppend(t, s, id, fmt.Sprintf("entry-%03d", i), AppendOptions{Forced: true})
	}
	end := s.End()
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	rep := s2.LastRecovery()
	if rep.SealedBlocks == 0 || rep.SealedBlocks < end-1 {
		t.Errorf("SealedBlocks = %d, end was %d", rep.SealedBlocks, end)
	}
	if rep.CatalogEntries != 1 {
		t.Errorf("CatalogEntries = %d, want 1", rep.CatalogEntries)
	}
	// §3.4: reconstruction examines at most N·log_N(b) blocks.
	n := 4
	logN := 0
	for v := rep.SealedBlocks; v > 0; v /= n {
		logN++
	}
	if got := rep.EntrymapBlocksScanned + rep.EntrymapEntriesRead; got > n*logN {
		t.Errorf("reconstruction examined %d, bound %d", got, n*logN)
	}
}

func TestDamagedBlockSkippedOnRead(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, CacheBlocks: -1}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/dmg")
	for i := 0; i < 50; i++ {
		mustAppend(t, s, id, fmt.Sprintf("e%02d", i), AppendOptions{Forced: true})
	}
	before := datas(readAll(t, s, "/dmg"))
	// Damage a mid-volume block (device index 5 = data block 4).
	garbage := make([]byte, 256)
	for i := range garbage {
		garbage[i] = 0x5A
	}
	if err := dev.Damage(5, garbage); err != nil {
		t.Fatal(err)
	}
	s.FlushCache() // drop the cached good copy
	// The device returns the garbage with no error; the read path rejects
	// it as ErrCorrupt, every time, and never caches it.
	const g = 4
	for try := 0; try < 2; try++ {
		if _, err := s.readBlock(g); !errors.Is(err, wodev.ErrCorrupt) {
			t.Fatalf("read %d of the damaged block: %v, want wodev.ErrCorrupt", try, err)
		}
		if img := s.blockCache().Lookup(cache.Key{Block: g}); img != nil {
			t.Fatalf("read %d cached the damaged block", try)
		}
	}
	after := datas(readAll(t, s, "/dmg"))
	if len(after) >= len(before) {
		t.Fatalf("damage lost nothing: %d vs %d", len(after), len(before))
	}
	// Everything else is intact and in order.
	j := 0
	for _, e := range before {
		if j < len(after) && after[j] == e {
			j++
		}
	}
	if j != len(after) {
		t.Error("surviving entries are not an ordered subset")
	}
}

func TestDamagedUnwrittenBlockInvalidatedAndLogged(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/bb")
	mustAppend(t, s, id, "first", AppendOptions{Forced: true})
	// Damage the next unwritten device block; the writer must invalidate it,
	// slide forward, and log it in /.badblocks.
	next := dev.Written()
	if err := dev.Damage(next, nil); err != nil {
		t.Fatal(err)
	}
	var want []string
	want = append(want, "first")
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("after-%02d", i)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	if got := s.Stats().DeadBlocks; got != 1 {
		t.Errorf("DeadBlocks = %d", got)
	}
	if got := datas(readAll(t, s, "/bb")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("entries after slide: %d vs %d", len(datas(readAll(t, s, "/bb"))), len(want))
	}
	// The bad block is visible after recovery via the bad-block log.
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	if rep := s2.LastRecovery(); len(rep.BadBlocks) != 1 {
		t.Errorf("recovered BadBlocks = %v", rep.BadBlocks)
	}
	if got := datas(readAll(t, s2, "/bb")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after recovery: mismatch")
	}
}

func TestGarbageWrittenBlocksDoNotSinkVolume(t *testing.T) {
	// §2.3.2: "the presence of corrupted blocks should not render the
	// remainder of the volume unusable."
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, CacheBlocks: -1}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/g")
	// Every 5th block written from here on is scribbled after the fact.
	rng := rand.New(rand.NewSource(99))
	garbage := make([]byte, 256)
	start := dev.Written()
	total := 0
	for i := 0; i < 120; i++ {
		next := dev.Written()
		mustAppend(t, s, id, fmt.Sprintf("e%03d", i), AppendOptions{Forced: true})
		total++
		for b := next; b < dev.Written(); b++ {
			if (b-start+1)%5 == 0 {
				rng.Read(garbage)
				if err := dev.Damage(b, garbage); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s.Crash()
	s2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatalf("recovery over damaged volume: %v", err)
	}
	defer s2.Close()
	got := datas(readAll(t, s2, "/g"))
	if len(got) == 0 || len(got) >= total {
		t.Errorf("recovered %d of %d entries", len(got), total)
	}
	// Still writable.
	mustAppend(t, s2, id, "fresh", AppendOptions{Forced: true})
	got2 := datas(readAll(t, s2, "/g"))
	if got2[len(got2)-1] != "fresh" {
		t.Error("volume unusable after damage")
	}
}

func TestRecoveryMultiVolume(t *testing.T) {
	alloc, extra := allocFromPool(t, 16)
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, Allocate: alloc}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 16})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/mv")
	var want []string
	for i := 0; i < 150; i++ {
		p := fmt.Sprintf("payload-%03d-%s", i, "yyyyyyyyyyyyyyyyyyyyyyy")
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	s.Crash()
	devs := []wodev.Device{dev}
	for _, d := range *extra {
		devs = append(devs, d)
	}
	s2, err := Open(devs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := datas(readAll(t, s2, "/mv")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("multi-volume recovery: %d vs %d", len(datas(readAll(t, s2, "/mv"))), len(want))
	}
}

func TestStaleNVRAMIgnored(t *testing.T) {
	// The hand-crafted crash below models the synchronous seal path (crash
	// between device write and NVRAM clear), so hide the staging slots to pin
	// it; the pipelined analog is covered by the staged-seal recovery tests.
	nv := NewMemNVRAM()
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, NVRAM: struct{ NVRAM }{nv}}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/s")
	var all []string
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("e%02d", i)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		all = append(all, p)
	}
	// Simulate a crash exactly between sealing block 0 and clearing the
	// NVRAM: the NVRAM still holds block 0's (already-sealed) image.
	sealedEnd := dev.Written() - 1 // data blocks on device
	img := make([]byte, 256)
	if err := dev.ReadBlock(1, img); err != nil {
		t.Fatal(err)
	}
	if err := nv.Store(0, img); err != nil {
		t.Fatal(err)
	}
	// Entries in the genuine tail were clobbered along with the NVRAM, so
	// only entries in sealed blocks survive.
	var want []string
	for _, e := range readAll(t, s, "/s") {
		if e.Block < sealedEnd {
			want = append(want, string(e.Data))
		}
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("bad test geometry: %d of %d sealed", len(want), len(all))
	}
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	if rep := s2.LastRecovery(); rep.TailRestored {
		t.Error("stale NVRAM image restored as tail")
	}
	if got := datas(readAll(t, s2, "/s")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("entries: got %d, want %d (sealed prefix)", len(got), len(want))
	}
}

func TestCatalogSurvivesAcrossManyLogFiles(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 512, Degree: 8, Now: tc.Now}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/a", "/b", "/a/x", "/a/y", "/b/z"}
	ids := map[string]uint16{}
	for _, p := range paths {
		ids[p] = mustCreate(t, s, p)
	}
	if err := s.SetPerms("/a", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := s.Retire("/b/z"); err != nil {
		t.Fatal(err)
	}
	s2 := crashAndReopen(t, s, dev, opt)
	defer s2.Close()
	for _, p := range paths {
		got, err := s2.Resolve(p)
		if err != nil || got != ids[p] {
			t.Errorf("Resolve(%s) = %d, %v; want %d", p, got, err, ids[p])
		}
	}
	d, err := s2.Stat("/a")
	if err != nil || d.Perms != 0o600 {
		t.Errorf("Stat /a: %+v, %v", d, err)
	}
	d, err = s2.Stat("/b/z")
	if err != nil || !d.Retired {
		t.Errorf("Stat /b/z: %+v, %v", d, err)
	}
}

// TestReopenClockPastMultiMemberEntry: a reopened service arms its clock
// past every timestamp in the newest block, a multi-member entry's too, so
// that with the wall clock behind, the next entry is still stamped after
// the last one written.
func TestReopenClockPastMultiMemberEntry(t *testing.T) {
	now := int64(0)
	clock := func() int64 { now += 1000; return now }
	opt := Options{BlockSize: 256, Degree: 4, Now: clock}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: opt.BlockSize, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, s, "/a")
	b := mustCreate(t, s, "/b")
	for i := 0; i < 20; i++ {
		mustAppend(t, s, a, "padding-entry-xxxxxxxxxxxx", AppendOptions{Timestamped: true})
	}
	last, err := s.AppendMulti([]uint16{a, b}, []byte("multi"), AppendOptions{Timestamped: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	now = 0 // the clock restarts behind what was written
	s2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ts := mustAppend(t, s2, a, "after", AppendOptions{Timestamped: true}); ts <= last {
		t.Fatalf("the first entry after reopening is stamped %d, at or before the multi-member entry's %d", ts, last)
	}
}
