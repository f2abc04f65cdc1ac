package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"clio/internal/archive"
	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/faults"
	"clio/internal/scrub"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// coldHarness owns the pieces a compaction test needs across crashes: the
// pool of memory devices (indexed by volume index), the cold backend, the
// sidecar store, the release log, and the fault registry every service and
// device fires into (each device is wrapped as wodev.Inject(mem, faults,
// "dev")). nv, when set, is every service's NVRAM.
type coldHarness struct {
	mu       sync.Mutex
	devs     map[uint32]wodev.Device
	released []uint32
	be       archive.Backend
	state    *MemState
	tc       *testClock
	blockCap int
	faults   *faults.Registry
	nv       NVRAM
}

func newColdHarness(blockCap int) *coldHarness {
	return &coldHarness{
		devs:     make(map[uint32]wodev.Device),
		be:       archive.NewMem(),
		state:    NewMemState(),
		tc:       &testClock{},
		blockCap: blockCap,
		faults:   faults.NewRegistry(0),
	}
}

// device returns a fresh volume device, wrapped in the harness's faults.
func (h *coldHarness) device(blockSize int) wodev.Device {
	return wodev.Inject(wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: h.blockCap}), h.faults, "dev")
}

func (h *coldHarness) options(compact CompactOptions) Options {
	return Options{
		BlockSize: 256,
		Degree:    4,
		Now:       h.tc.Now,
		NVRAM:     h.nv,
		Faults:    h.faults,
		Allocate: func(_ volume.SeqID, index uint32, _ uint64, blockSize int) (wodev.Device, error) {
			d := h.device(blockSize)
			h.mu.Lock()
			h.devs[index] = d
			h.mu.Unlock()
			return d, nil
		},
		Cold: &ColdTier{
			Backend: h.be,
			State:   h.state,
			Release: func(index uint32) error {
				h.mu.Lock()
				h.released = append(h.released, index)
				h.mu.Unlock()
				return nil
			},
			Compact: compact,
		},
	}
}

// open creates (first call) or reopens the service over every device that
// has not been released — exactly the set a file-backed store would find on
// disk after a crash.
func (h *coldHarness) open(t *testing.T, compact CompactOptions) *Service {
	t.Helper()
	opt := h.options(compact)
	h.mu.Lock()
	gone := make(map[uint32]bool, len(h.released))
	for _, idx := range h.released {
		gone[idx] = true
	}
	var idxs []int
	for idx := range h.devs {
		if !gone[idx] {
			idxs = append(idxs, int(idx))
		}
	}
	sort.Ints(idxs)
	devs := make([]wodev.Device, 0, len(idxs))
	for _, idx := range idxs {
		devs = append(devs, h.devs[uint32(idx)])
	}
	h.mu.Unlock()
	if len(devs) == 0 {
		d := h.device(opt.BlockSize)
		h.devs[0] = d
		s, err := New(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, err := Open(devs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fillVolumes appends interleaved live ("/keep") and doomed ("/dead")
// entries until the service spans at least wantVols volumes, then retires
// "/dead" so old volumes become mostly garbage. Returns the data appended
// to "/keep" in order.
func fillVolumes(t *testing.T, s *Service, keep, dead uint16, wantVols int) []string {
	t.Helper()
	var want []string
	for i := 0; len(s.Volumes()) < wantVols; i++ {
		if i > 10000 {
			t.Fatal("could not fill volumes")
		}
		if i%5 == 0 {
			p := fmt.Sprintf("keep-%04d-%s", i, "kkkkkkkkkkkkkkkkkkkk")
			mustAppend(t, s, keep, p, AppendOptions{})
			want = append(want, p)
		} else {
			mustAppend(t, s, dead, fmt.Sprintf("dead-%04d-%s", i, "dddddddddddddddddddd"), AppendOptions{})
		}
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestCompactRelocateDemoteReadThrough(t *testing.T) {
	h := newColdHarness(16)
	copt := CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2}
	s := h.open(t, copt)
	defer s.Close()

	keep := mustCreate(t, s, "/keep")
	dead := mustCreate(t, s, "/dead")
	want := fillVolumes(t, s, keep, dead, 5)
	if err := s.Retire("/dead"); err != nil {
		t.Fatal(err)
	}

	// Capture every sealed block's bytes while everything is still hot, so
	// cold read-through can be checked byte-for-byte.
	hotImg := make(map[int][]byte)
	for _, v := range s.Volumes() {
		written, err := v.DataWritten()
		if err != nil {
			t.Fatal(err)
		}
		for local := 0; local < written; local++ {
			g := int(v.Hdr.StartOffset) + local
			img, err := s.readBlock(g)
			if err != nil {
				t.Fatalf("hot read block %d: %v", g, err)
			}
			hotImg[g] = append([]byte(nil), img...)
		}
	}

	res, err := s.CompactOnce(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatalf("CompactOnce: %v", err)
	}
	if res.VolumesReloc == 0 || res.VolumesDemoted == 0 {
		t.Fatalf("no compaction happened: %+v", res)
	}
	if res.EntriesCopied == 0 || res.BytesCopied == 0 {
		t.Fatalf("no entries relocated: %+v", res)
	}
	h.mu.Lock()
	nReleased := len(h.released)
	h.mu.Unlock()
	if nReleased != res.VolumesDemoted {
		t.Errorf("released %d devices, demoted %d volumes", nReleased, res.VolumesDemoted)
	}

	// Every acked live entry is still readable, in order, exactly once.
	if got := datas(readAll(t, s, "/keep")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("post-compaction /keep mismatch: got %d entries, want %d\n got=%v\nwant=%v",
			len(got), len(want), got, want)
	}

	st := s.Stats()
	if st.EntriesRelocated != int64(res.EntriesCopied) || st.BytesRelocated != res.BytesCopied {
		t.Errorf("stats reloc counters %d/%d, result %d/%d",
			st.EntriesRelocated, st.BytesRelocated, res.EntriesCopied, res.BytesCopied)
	}
	if st.VolumesDemoted != int64(res.VolumesDemoted) {
		t.Errorf("stats demoted %d, result %d", st.VolumesDemoted, res.VolumesDemoted)
	}

	// Cold read-through: flush the cache, then every demoted block must
	// come back byte-identical through the archive backend, counted as a
	// cold fetch (archival latency) and not as a device read.
	s.SetCacheCapacity(64)
	st = s.Stats()
	cv := s.cmpView.Load()
	if cv == nil {
		t.Fatal("no compaction view after compaction")
	}
	var demoted []*relocVol
	for _, v := range cv.vols {
		if v.Demoted {
			demoted = append(demoted, v)
		}
	}
	if len(demoted) == 0 {
		t.Fatal("no demoted volumes in view")
	}
	checked := 0
	for _, v := range demoted {
		for g := v.Start; g < v.end(); g++ {
			img, err := s.readBlock(g)
			if err != nil {
				t.Fatalf("cold read block %d: %v", g, err)
			}
			if !bytes.Equal(img, hotImg[g]) {
				t.Fatalf("cold block %d differs from pre-demotion image", g)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no demoted blocks to check")
	}
	fetchAfter := s.Stats().ColdFetches
	if fetchAfter-st.ColdFetches != int64(checked) {
		t.Errorf("cold fetches %d, want %d", fetchAfter-st.ColdFetches, checked)
	}
	if dr := s.Stats().DeviceReads - st.DeviceReads; dr != 0 {
		t.Errorf("cold reads counted %d device reads", dr)
	}

	// Second read of the same blocks is a cache hit: no new cold fetches.
	for _, v := range demoted {
		for g := v.Start; g < v.end(); g++ {
			if _, err := s.readBlock(g); err != nil {
				t.Fatalf("cached cold block %d: %v", g, err)
			}
		}
	}
	if got := s.Stats().ColdFetches; got != fetchAfter {
		t.Errorf("second read fetched cold again: %d -> %d", fetchAfter, got)
	}

	// The full physical history — hot volumes plus the cold archive —
	// still scrubs clean.
	coldDevs, err := archive.Restore(context.Background(), h.be)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]wodev.Device, 0, len(coldDevs)+4)
	seen := make(map[uint32]bool)
	for _, v := range s.Volumes() {
		all = append(all, v.Dev)
		seen[v.Hdr.Index] = true
	}
	for _, d := range coldDevs {
		hdr, err := volume.ReadHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[hdr.Index] {
			all = append(all, d)
		}
	}
	rep, err := scrub.Volumes(all, scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("scrub found problems after compaction: %v", rep.Problems)
	}

	// ResetCounters covers every counter this run moved — appends, seals,
	// relocation and the cold fetches alike; what stays are the gauges,
	// which re-derive from live state.
	s.ResetCounters()
	after := s.Stats()
	gauges := Stats{
		CommitWindowNanos: after.CommitWindowNanos,
		InflightSeals:     after.InflightSeals,
		StagedBytes:       after.StagedBytes,
		VolumesRelocated:  after.VolumesRelocated,
		VolumesDemoted:    after.VolumesDemoted,
	}
	if after != gauges {
		t.Errorf("counters survive ResetCounters: %+v", after)
	}
}

// sickBackend damages every volume-image read while sick is set: a cold tier
// that returns the right number of wrong bytes.
type sickBackend struct {
	archive.Backend
	sick atomic.Bool
}

func (b *sickBackend) ReadAt(ctx context.Context, name string, off int64, dst []byte) (int, error) {
	n, err := b.Backend.ReadAt(ctx, name, off, dst)
	if n > 0 && b.sick.Load() {
		dst[n/2] ^= 0x10
	}
	return n, err
}

// TestColdFetchDamageIsNotCached: the backend vouches only for a fetched
// image's length, so the service validates it before the cache may hold it.
// A damaged fetch is an ErrBadChecksum for that reader alone — to a cursor,
// a lost block — and once the backend heals the next read gets the block.
func TestColdFetchDamageIsNotCached(t *testing.T) {
	h := newColdHarness(16)
	be := &sickBackend{Backend: h.be}
	h.be = be
	s := h.open(t, CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2})
	defer s.Close()
	keep := mustCreate(t, s, "/keep")
	dead := mustCreate(t, s, "/dead")
	want := fillVolumes(t, s, keep, dead, 5)
	if err := s.Retire("/dead"); err != nil {
		t.Fatal(err)
	}
	if res, err := s.CompactOnce(context.Background(), CompactOptions{}); err != nil || res.VolumesDemoted == 0 {
		t.Fatalf("CompactOnce: %+v, %v", res, err)
	}
	var cold *relocVol
	for _, v := range s.cmpView.Load().vols {
		if v.Demoted {
			cold = v
			break
		}
	}
	if cold == nil {
		t.Fatal("no demoted volume in view")
	}
	key := cache.Key{Block: cold.Start}

	s.FlushCache()
	be.sick.Store(true)
	for try := 0; try < 2; try++ { // the second read must ask the backend again
		if _, err := s.readBlock(cold.Start); !errors.Is(err, blockfmt.ErrBadChecksum) {
			t.Fatalf("damaged cold fetch %d: %v, want ErrBadChecksum", try, err)
		}
		if s.blockCache().Lookup(key) != nil {
			t.Fatalf("damaged cold fetch %d was cached", try)
		}
	}
	fetches := s.Stats().ColdFetches
	be.sick.Store(false)
	img, err := s.readBlock(cold.Start)
	if err != nil || !blockfmt.Validate(img) {
		t.Fatalf("cold fetch after the backend healed: %v", err)
	}
	if got, cached := s.Stats().ColdFetches, s.blockCache().Lookup(key) != nil; got != fetches+1 || !cached {
		t.Fatalf("healed read: %d cold fetches (want %d), cached %v", got, fetches+1, cached)
	}
	// Nothing of the episode is left behind: the log reads whole.
	if got := datas(readAll(t, s, "/keep")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("/keep after healing: %d entries, want %d", len(got), len(want))
	}
}

func TestCompactSkipsDenseVolumes(t *testing.T) {
	h := newColdHarness(16)
	s := h.open(t, CompactOptions{})
	defer s.Close()
	keep := mustCreate(t, s, "/keep")
	for i := 0; len(s.Volumes()) < 4; i++ {
		mustAppend(t, s, keep, fmt.Sprintf("live-%04d-%s", i, "xxxxxxxxxxxxxxxxxxxx"), AppendOptions{})
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
	res, err := s.CompactOnce(context.Background(), CompactOptions{MaxLiveFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.VolumesReloc != 0 || res.VolumesDemoted != 0 {
		t.Errorf("dense volumes were compacted: %+v", res)
	}
	if res.VolumesSkipped == 0 {
		t.Errorf("no volumes examined and skipped: %+v", res)
	}
}

func TestCompactNoColdTier(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	if _, err := s.CompactOnce(context.Background(), CompactOptions{}); !errors.Is(err, ErrNoColdTier) {
		t.Errorf("CompactOnce without cold tier: %v", err)
	}
}

// TestCompactCrashResume kills the service at every stage of the compaction
// protocol and verifies that no acked entry is lost and that a subsequent
// pass completes the work.
func TestCompactCrashResume(t *testing.T) {
	stages := []string{"collected", "forced", "committed", "archived", "demoted"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			h := newColdHarness(16)
			copt := CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2}
			s := h.open(t, copt)
			keep := mustCreate(t, s, "/keep")
			dead := mustCreate(t, s, "/dead")
			want := fillVolumes(t, s, keep, dead, 5)
			if err := s.Retire("/dead"); err != nil {
				t.Fatal(err)
			}

			boom := errors.New("injected crash")
			h.faults.Arm(FaultCompact+stage, faults.Fault{Err: boom, Times: 1})
			if _, err := s.CompactOnce(context.Background(), CompactOptions{}); !errors.Is(err, boom) {
				t.Fatalf("stage %s: CompactOnce error %v, want injected crash", stage, err)
			}
			s.Crash()

			// Reopen on whatever devices survived; acked entries must all
			// be there, exactly once, in order.
			s2 := h.open(t, copt)
			if got := datas(readAll(t, s2, "/keep")); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("stage %s: post-crash /keep mismatch:\n got=%v\nwant=%v", stage, got, want)
			}

			// A fresh pass finishes the interrupted work.
			res, err := s2.CompactOnce(context.Background(), CompactOptions{})
			if err != nil {
				t.Fatalf("stage %s: resume CompactOnce: %v", stage, err)
			}
			if s2.Stats().VolumesDemoted == 0 && res.VolumesDemoted == 0 {
				t.Fatalf("stage %s: nothing demoted after resume: %+v", stage, res)
			}
			if got := datas(readAll(t, s2, "/keep")); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("stage %s: post-resume /keep mismatch:\n got=%v\nwant=%v", stage, got, want)
			}

			// Appends still work after the dust settles.
			mustAppend(t, s2, keep, "after-resume", AppendOptions{})
			if err := s2.Force(); err != nil {
				t.Fatal(err)
			}
			got := datas(readAll(t, s2, "/keep"))
			if len(got) != len(want)+1 || got[len(got)-1] != "after-resume" {
				t.Fatalf("stage %s: append after resume not readable: %v", stage, got)
			}
			s2.Close()
		})
	}
}

// TestCompactRecompaction compacts a volume that hosts copies from an
// earlier compaction, exercising the hosted-range replacement path.
func TestCompactRecompaction(t *testing.T) {
	h := newColdHarness(16)
	copt := CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2, MaxVolumes: 1}
	s := h.open(t, copt)
	defer s.Close()
	keep := mustCreate(t, s, "/keep")
	dead := mustCreate(t, s, "/dead")
	want := fillVolumes(t, s, keep, dead, 4)
	if err := s.Retire("/dead"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := s.CompactOnce(context.Background(), CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2, MaxVolumes: 1}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := datas(readAll(t, s, "/keep")); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: /keep mismatch:\n got=%v\nwant=%v", round, got, want)
		}
		// Keep the log busy between rounds so fresh volumes age.
		for i := 0; i < 20; i++ {
			p := fmt.Sprintf("keep-r%d-%02d-%s", round, i, "kkkkkkkkkkkkkkkkkkkk")
			mustAppend(t, s, keep, p, AppendOptions{})
			want = append(want, p)
		}
		if err := s.Force(); err != nil {
			t.Fatal(err)
		}
	}
	if got := datas(readAll(t, s, "/keep")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("final /keep mismatch:\n got=%v\nwant=%v", got, want)
	}
	if s.Stats().VolumesDemoted == 0 {
		t.Error("no volumes demoted across rounds")
	}
}

func TestCompactSeekAcrossRedirect(t *testing.T) {
	h := newColdHarness(16)
	copt := CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2}
	s := h.open(t, copt)
	defer s.Close()
	keep := mustCreate(t, s, "/keep")
	dead := mustCreate(t, s, "/dead")
	want := fillVolumes(t, s, keep, dead, 5)
	if err := s.Retire("/dead"); err != nil {
		t.Fatal(err)
	}
	var wantTS []int64
	for _, e := range readAll(t, s, "/keep") {
		wantTS = append(wantTS, e.Timestamp)
	}
	if _, err := s.CompactOnce(context.Background(), CompactOptions{}); err != nil {
		t.Fatal(err)
	}

	c, err := s.OpenCursor("/keep")
	if err != nil {
		t.Fatal(err)
	}
	// Backward sweep sees the same entries reversed.
	c.SeekEnd()
	var back []string
	for {
		e, err := c.Prev()
		if err != nil {
			break
		}
		back = append(back, string(e.Data))
	}
	for i, j := 0, len(back)-1; i < j; i, j = i+1, j-1 {
		back[i], back[j] = back[j], back[i]
	}
	if fmt.Sprint(back) != fmt.Sprint(want) {
		t.Errorf("backward sweep mismatch:\n got=%v\nwant=%v", back, want)
	}
	// SeekTime to each original timestamp lands on the first entry at or
	// after it (un-forced entries share their block's footer timestamp, so
	// the expected entry is the lower bound, not necessarily entry i).
	for i, ts := range wantTS {
		first := sort.Search(len(wantTS), func(j int) bool { return wantTS[j] >= ts })
		if err := c.SeekTime(ts); err != nil {
			t.Fatalf("SeekTime(%d): %v", ts, err)
		}
		e, err := c.Next()
		if err != nil {
			t.Fatalf("Next after SeekTime(%d): %v", ts, err)
		}
		if string(e.Data) != want[first] {
			t.Errorf("SeekTime(%d) (entry %d) -> %q, want %q", ts, i, e.Data, want[first])
		}
	}
}

func TestCompactSidecarRoundTrip(t *testing.T) {
	st := &compactState{Vols: []*relocVol{
		{Index: 3, Start: 30, Blocks: 15, Capacity: 15, Demoted: true,
			IDs:    []uint16{4, 7},
			Ranges: []copyRange{{StartBlock: 61, StartRec: 2, EndBlock: 61, EndRec: 5}}},
		{Index: 1, Start: 0, Blocks: 15, Capacity: 15,
			IDs: []uint16{4}},
	}}
	got, err := decodeCompactState(st.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vols) != 2 {
		t.Fatalf("decoded %d vols", len(got.Vols))
	}
	v := got.Vols[0]
	if v.Index != 3 || v.Start != 30 || v.Blocks != 15 || !v.Demoted ||
		fmt.Sprint(v.IDs) != fmt.Sprint([]uint16{4, 7}) || len(v.Ranges) != 1 {
		t.Errorf("vol 0 mismatch: %+v", v)
	}
	if v.Ranges[0] != (copyRange{StartBlock: 61, StartRec: 2, EndBlock: 61, EndRec: 5}) {
		t.Errorf("range mismatch: %+v", v.Ranges[0])
	}
	// Corruption is detected, not silently accepted.
	enc := st.encode()
	enc[len(enc)-1] ^= 0xff
	if _, err := decodeCompactState(enc); !errors.Is(err, ErrBadSidecar) {
		t.Errorf("corrupted sidecar decoded: %v", err)
	}
	if _, err := decodeCompactState(enc[:4]); !errors.Is(err, ErrBadSidecar) {
		t.Errorf("truncated sidecar decoded: %v", err)
	}
}

func TestCompactFileStateRoundTrip(t *testing.T) {
	fs := NewFileState(t.TempDir() + "/compact.clio")
	if data, err := fs.Load(); err != nil || data != nil {
		t.Fatalf("fresh Load = %v, %v", data, err)
	}
	st := &compactState{Vols: []*relocVol{{Index: 9, Start: 90, Blocks: 10, Capacity: 15}}}
	if err := fs.Save(st.encode()); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeCompactState(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vols) != 1 || got.Vols[0].Index != 9 {
		t.Errorf("file round trip mismatch: %+v", got.Vols)
	}
}

// decodeCompactMarker decodes a ".compact" marker entry's payload, the
// inverse of encodeCompactMarker.
func decodeCompactMarker(data []byte) (index uint32, ids []uint16, err error) {
	r := wire.NewReader(data, errors.New("clio: malformed compaction marker"))
	index, ids = r.Uint32(), readSidecarIDs(r)
	if r.Err() != nil {
		return 0, nil, r.Err()
	}
	return index, ids, nil
}

func TestCompactMarkerRoundTrip(t *testing.T) {
	enc := encodeCompactMarker(7, []uint16{4, 9, 200})
	idx, ids, err := decodeCompactMarker(enc)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 7 || fmt.Sprint(ids) != fmt.Sprint([]uint16{4, 9, 200}) {
		t.Errorf("marker round trip: %d %v", idx, ids)
	}
	// The marker's ids get the range check and the count bound the sidecar
	// applies to the same field: an id is never truncated into another log's.
	marker := func(count uint64, ids ...uint64) []byte {
		out := wire.PutUvarint(wire.PutUint32(nil, 7), count)
		for _, id := range ids {
			out = wire.PutUvarint(out, id)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"id 0x1_0005 (used to decode as 5)", marker(1, 0x1_0005)},
		{"id one past MaxLogID", marker(2, 4, wire.MaxLogID+1)},
		{"count above every id and its retire", marker(maxSidecarIDs + 1)},
		{"count past the ids present", marker(3, 4, 9)},
		{"truncated index", []byte{7, 0}},
	} {
		if idx, ids, err := decodeCompactMarker(tc.payload); err == nil {
			t.Errorf("%s: decoded as volume %d ids %v", tc.name, idx, ids)
		}
	}
	if _, ids, err := decodeCompactMarker(marker(1, wire.MaxLogID)); err != nil || len(ids) != 1 {
		t.Errorf("id MaxLogID refused: %v %v", ids, err)
	}
}
