package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"clio/internal/volume"
	"clio/internal/wodev"
)

// testClock is a deterministic time source.
type testClock struct{ now int64 }

func (tc *testClock) Now() int64 {
	tc.now += 1000
	return tc.now
}

// newTestService creates a service on an in-memory device.
func newTestService(t *testing.T, opt Options) (*Service, *wodev.MemDevice) {
	t.Helper()
	if opt.BlockSize == 0 {
		opt.BlockSize = 256
	}
	if opt.Degree == 0 {
		opt.Degree = 4
	}
	if opt.Now == nil {
		tc := &testClock{}
		opt.Now = tc.Now
	}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: opt.BlockSize, Capacity: 1 << 16})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev
}

func mustCreate(t *testing.T, s *Service, path string) uint16 {
	t.Helper()
	id, err := s.CreateLog(path, 0o644, "test")
	if err != nil {
		t.Fatalf("CreateLog(%s): %v", path, err)
	}
	return id
}

func mustAppend(t *testing.T, s *Service, id uint16, data string, opts AppendOptions) int64 {
	t.Helper()
	ts, err := s.Append(id, []byte(data), opts)
	if err != nil && !IsDegraded(err) {
		t.Fatalf("Append(%d, %q): %v", id, data, err)
	}
	return ts
}

func readAll(t *testing.T, s *Service, path string) []*Entry {
	t.Helper()
	c, err := s.OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Entry
	for {
		e, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, e)
	}
}

func datas(entries []*Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = string(e.Data)
	}
	return out
}

func TestAppendReadRoundTrip(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/audit")
	want := []string{"alpha", "bravo", "charlie"}
	for _, w := range want {
		mustAppend(t, s, id, w, AppendOptions{})
	}
	got := datas(readAll(t, s, "/audit"))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("read back %v, want %v", got, want)
	}
}

func TestAppendValidation(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	if _, err := s.Append(999, []byte("x"), AppendOptions{}); err == nil {
		t.Error("append to unknown id accepted")
	}
	if _, err := s.Append(1, []byte("x"), AppendOptions{}); !errors.Is(err, ErrSystemLog) {
		t.Errorf("append to entrymap log: %v", err)
	}
	id := mustCreate(t, s, "/big")
	huge := make([]byte, MaxEntrySize+1)
	if _, err := s.Append(id, huge, AppendOptions{}); !errors.Is(err, ErrEntryTooLarge) {
		t.Errorf("oversized append: %v", err)
	}
	if err := s.Retire("/big"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(id, []byte("x"), AppendOptions{}); err == nil {
		t.Error("append to retired log accepted")
	}
}

func TestTimestampsStrictlyIncrease(t *testing.T) {
	// A constant wall clock must still yield strictly increasing stamps.
	s, _ := newTestService(t, Options{Now: func() int64 { return 42 }})
	defer s.Close()
	id := mustCreate(t, s, "/l")
	var last int64
	for i := 0; i < 10; i++ {
		ts := mustAppend(t, s, id, "x", AppendOptions{Timestamped: true})
		if ts <= last {
			t.Fatalf("timestamp %d not after %d", ts, last)
		}
		last = ts
	}
}

func TestSublogMembership(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	mail := mustCreate(t, s, "/mail")
	smith := mustCreate(t, s, "/mail/smith")
	jones := mustCreate(t, s, "/mail/jones")
	mustAppend(t, s, smith, "to-smith-1", AppendOptions{})
	mustAppend(t, s, jones, "to-jones-1", AppendOptions{})
	mustAppend(t, s, smith, "to-smith-2", AppendOptions{})
	mustAppend(t, s, mail, "to-all", AppendOptions{})

	if got := datas(readAll(t, s, "/mail/smith")); fmt.Sprint(got) != "[to-smith-1 to-smith-2]" {
		t.Errorf("smith: %v", got)
	}
	// The parent log yields its own entries plus all sublogs', in order.
	if got := datas(readAll(t, s, "/mail")); fmt.Sprint(got) != "[to-smith-1 to-jones-1 to-smith-2 to-all]" {
		t.Errorf("mail: %v", got)
	}
	// The volume sequence log contains everything, including system entries.
	all := readAll(t, s, "/")
	var clientData []string
	for _, e := range all {
		if e.LogID == mail || e.LogID == smith || e.LogID == jones {
			clientData = append(clientData, string(e.Data))
		}
	}
	if fmt.Sprint(clientData) != "[to-smith-1 to-jones-1 to-smith-2 to-all]" {
		t.Errorf("volume sequence log client entries: %v", clientData)
	}
}

func TestFragmentationAcrossBlocks(t *testing.T) {
	s, _ := newTestService(t, Options{BlockSize: 256})
	defer s.Close()
	id := mustCreate(t, s, "/frag")
	big := make([]byte, 1000) // ~4.3 blocks of 232-byte payloads
	for i := range big {
		big[i] = byte(i)
	}
	mustAppend(t, s, id, string(big), AppendOptions{Timestamped: true})
	mustAppend(t, s, id, "after", AppendOptions{})
	got := readAll(t, s, "/frag")
	if len(got) != 2 {
		t.Fatalf("%d entries", len(got))
	}
	if !bytes.Equal(got[0].Data, big) {
		t.Error("fragmented entry data mismatch")
	}
	if string(got[1].Data) != "after" {
		t.Errorf("second entry %q", got[1].Data)
	}
	// Backwards too.
	c, _ := s.OpenCursor("/frag")
	c.SeekEnd()
	e, err := c.Prev()
	if err != nil || string(e.Data) != "after" {
		t.Fatalf("Prev: %v %q", err, e.Data)
	}
	e, err = c.Prev()
	if err != nil || !bytes.Equal(e.Data, big) {
		t.Fatalf("Prev big: %v", err)
	}
	if _, err := c.Prev(); err != io.EOF {
		t.Fatalf("Prev at start: %v", err)
	}
}

func TestEmptyEntry(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/null")
	mustAppend(t, s, id, "", AppendOptions{Timestamped: true})
	got := readAll(t, s, "/null")
	if len(got) != 1 || len(got[0].Data) != 0 {
		t.Fatalf("null entry: %+v", got)
	}
}

func TestCursorPrevNextSymmetry(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/sym")
	for i := 0; i < 40; i++ {
		mustAppend(t, s, id, fmt.Sprintf("e%02d", i), AppendOptions{})
	}
	c, _ := s.OpenCursor("/sym")
	// Walk forward 10, then back 3, then forward 3: positions must agree.
	for i := 0; i < 10; i++ {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	var back []string
	for i := 0; i < 3; i++ {
		e, err := c.Prev()
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, string(e.Data))
	}
	if fmt.Sprint(back) != "[e09 e08 e07]" {
		t.Errorf("backward walk: %v", back)
	}
	var fwd []string
	for i := 0; i < 3; i++ {
		e, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		fwd = append(fwd, string(e.Data))
	}
	if fmt.Sprint(fwd) != "[e07 e08 e09]" {
		t.Errorf("forward rewalk: %v", fwd)
	}
}

func TestSeekTime(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/t")
	var stamps []int64
	for i := 0; i < 50; i++ {
		stamps = append(stamps, mustAppend(t, s, id, fmt.Sprintf("e%d", i), AppendOptions{Timestamped: true}))
	}
	c, _ := s.OpenCursor("/t")
	for _, k := range []int{0, 1, 7, 25, 49} {
		if err := c.SeekTime(stamps[k]); err != nil {
			t.Fatal(err)
		}
		e, err := c.Next()
		if err != nil || string(e.Data) != fmt.Sprintf("e%d", k) {
			t.Fatalf("SeekTime(stamp[%d]) -> %v %q", k, err, e.Data)
		}
		// Prev after re-seek returns the entry before the seek point.
		if err := c.SeekTime(stamps[k]); err != nil {
			t.Fatal(err)
		}
		pe, perr := c.Prev()
		if k == 0 {
			if perr != io.EOF {
				t.Fatalf("Prev before first: %v", perr)
			}
		} else if perr != nil || string(pe.Data) != fmt.Sprintf("e%d", k-1) {
			t.Fatalf("Prev at stamp[%d]: %v %q", k, perr, pe.Data)
		}
	}
	// Seeking past the end: Next yields EOF.
	if err := c.SeekTime(stamps[49] + 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next past end: %v", err)
	}
	// Seeking before the beginning, down to the earliest representable
	// time: Next yields the first entry.
	for _, ts := range []int64{0, -1, math.MinInt64 + 1, math.MinInt64} {
		if err := c.SeekTime(ts); err != nil {
			t.Fatal(err)
		}
		if e, err := c.Next(); err != nil || string(e.Data) != "e0" {
			t.Fatalf("Next from time %d: %v, %v", ts, err, e)
		}
	}
}

func TestUntimestampedEntriesInheritTimestamps(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/mix")
	ts1 := mustAppend(t, s, id, "a", AppendOptions{Timestamped: true})
	mustAppend(t, s, id, "b", AppendOptions{}) // minimal header
	entries := readAll(t, s, "/mix")
	if len(entries) != 2 {
		t.Fatal("want 2 entries")
	}
	if entries[0].Timestamp != ts1 || !entries[0].Timestamped {
		t.Errorf("entry a ts=%d", entries[0].Timestamp)
	}
	if entries[1].Timestamped {
		t.Error("minimal entry claims its own timestamp")
	}
	if entries[1].Timestamp < ts1 {
		t.Errorf("inherited ts %d < %d", entries[1].Timestamp, ts1)
	}
}

func TestReadAt(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/ra")
	mustAppend(t, s, id, "hello", AppendOptions{})
	entries := readAll(t, s, "/ra")
	e, err := s.ReadAt(entries[0].Block, entries[0].Index)
	if err != nil || string(e.Data) != "hello" {
		t.Fatalf("ReadAt: %v %q", err, e.Data)
	}
	if _, err := s.ReadAt(entries[0].Block, 999); err == nil {
		t.Error("ReadAt out of range accepted")
	}
}

func TestManyEntriesAcrossBoundaries(t *testing.T) {
	// Enough entries to cross several level-1 and level-2 boundaries with
	// N=4, exercising entrymap emission and selective cursor advance.
	s, _ := newTestService(t, Options{BlockSize: 256, Degree: 4})
	defer s.Close()
	a := mustCreate(t, s, "/a")
	b := mustCreate(t, s, "/b")
	var wantA, wantB []string
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		payload := fmt.Sprintf("entry-%03d-%s", i, string(make([]byte, rng.Intn(40))))
		if rng.Intn(3) == 0 {
			mustAppend(t, s, b, payload, AppendOptions{})
			wantB = append(wantB, payload)
		} else {
			mustAppend(t, s, a, payload, AppendOptions{})
			wantA = append(wantA, payload)
		}
	}
	if s.End() < 20 {
		t.Fatalf("only %d blocks written; geometry too small", s.End())
	}
	if got := datas(readAll(t, s, "/a")); fmt.Sprint(got) != fmt.Sprint(wantA) {
		t.Errorf("log a mismatch: %d vs %d entries", len(got), len(wantA))
	}
	if got := datas(readAll(t, s, "/b")); fmt.Sprint(got) != fmt.Sprint(wantB) {
		t.Errorf("log b mismatch: %d vs %d entries", len(got), len(wantB))
	}
	// Backward iteration over a selective cursor.
	c, _ := s.OpenCursor("/b")
	c.SeekEnd()
	for i := len(wantB) - 1; i >= 0; i-- {
		e, err := c.Prev()
		if err != nil {
			t.Fatalf("Prev at %d: %v", i, err)
		}
		if string(e.Data) != wantB[i] {
			t.Fatalf("Prev %d: %q want %q", i, e.Data, wantB[i])
		}
	}
	if _, err := c.Prev(); err != io.EOF {
		t.Fatalf("Prev past start: %v", err)
	}
}

func TestCursorSeesNewWrites(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/live")
	c, _ := s.OpenCursor("/live")
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("empty: %v", err)
	}
	mustAppend(t, s, id, "later", AppendOptions{})
	e, err := c.Next()
	if err != nil || string(e.Data) != "later" {
		t.Fatalf("cursor missed new write: %v", err)
	}
}

func allocFromPool(t *testing.T, blockCap int) (Allocator, *[]*wodev.MemDevice) {
	devs := &[]*wodev.MemDevice{}
	return func(seq volume.SeqID, index uint32, startOffset uint64, blockSize int) (wodev.Device, error) {
		d := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: blockCap})
		*devs = append(*devs, d)
		return d, nil
	}, devs
}

func TestMultiVolumeSpanning(t *testing.T) {
	alloc, extra := allocFromPool(t, 16)
	tc := &testClock{}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 16})
	s, err := New(dev, Options{BlockSize: 256, Degree: 4, Now: tc.Now, Allocate: alloc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/span")
	var want []string
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("payload-%03d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
		mustAppend(t, s, id, p, AppendOptions{})
		want = append(want, p)
	}
	if len(*extra) == 0 {
		t.Fatal("no successor volumes were allocated")
	}
	if got := datas(readAll(t, s, "/span")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("multi-volume read mismatch (%d vs %d)", len(got), len(want))
	}
	if len(s.Volumes()) < 3 {
		t.Errorf("only %d volumes", len(s.Volumes()))
	}
}

func TestVolumeFullWithoutAllocator(t *testing.T) {
	tc := &testClock{}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 4})
	s, err := New(dev, Options{BlockSize: 256, Degree: 4, Now: tc.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/full")
	var lastErr error
	for i := 0; i < 100; i++ {
		if _, lastErr = s.Append(id, []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), AppendOptions{}); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrNoAllocator) {
		t.Errorf("filling the only volume: %v", lastErr)
	}
}

// TestOpenTakesGeometryFromHeader: the volume header says what the block
// size and degree are, so Open needs neither; given, they are asserted.
func TestOpenTakesGeometryFromHeader(t *testing.T) {
	s, dev := newTestService(t, Options{}) // 256-byte blocks, degree 4
	id := mustCreate(t, s, "/g")
	mustAppend(t, s, id, "entry", AppendOptions{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.BlockSize() != 256 || s.opt.Degree != 4 {
		t.Errorf("opened with block size %d, degree %d; the header says 256 and 4", s.BlockSize(), s.opt.Degree)
	}
	if got := datas(readAll(t, s, "/g")); len(got) != 1 || got[0] != "entry" {
		t.Errorf("read back %v", got)
	}
	s.Close()
	if _, err := Open([]wodev.Device{dev}, Options{Degree: 16}); err == nil {
		t.Error("Open with a degree the header contradicts accepted")
	}
}

// TestCursorEffectiveTimestamps: a cursor carries the last record's
// effective timestamp from one decode to the next, forward, backward and
// turning round, over blocks of mostly untimestamped entries of two
// interleaved logs. Every entry it returns carries the timestamp ReadAt,
// which derives it from the block alone, gives the same record.
func TestCursorEffectiveTimestamps(t *testing.T) {
	tc := &testClock{}
	s, _ := newTestService(t, Options{BlockSize: 1024, Now: tc.Now})
	defer s.Close()
	mustCreate(t, s, "/p")
	a := mustCreate(t, s, "/p/a")
	b := mustCreate(t, s, "/p/b")
	for i := 0; i < 600; i++ {
		mustAppend(t, s, []uint16{a, b}[i%2], fmt.Sprintf("m%03d", i), AppendOptions{Timestamped: i%37 == 0})
	}
	check := func(path string, e *Entry) {
		t.Helper()
		want, err := s.ReadAt(e.Block, e.Index)
		if err != nil {
			t.Fatal(err)
		}
		if e.Timestamp != want.Timestamp {
			t.Fatalf("%s: entry %q at (%d,%d) has timestamp %d, ReadAt gives %d",
				path, e.Data, e.Block, e.Index, e.Timestamp, want.Timestamp)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, path := range []string{"/p", "/p/a", "/p/b"} {
		c, err := s.OpenCursor(path)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 2000; n++ {
			step := c.Next
			if rng.Intn(3) == 0 {
				step = c.Prev
			}
			e, err := step()
			if err == io.EOF {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			check(path, e)
		}
	}
}

// BenchmarkCursorScanMinimal scans a warm log of untimestamped entries in
// the largest blocks, about 3,300 records each: every record's timestamp is
// the footer's, so a cursor that walked back to a header for each entry
// would cost O(records²) a block. It reports ns/op per entry.
func BenchmarkCursorScanMinimal(b *testing.B) {
	const blockSize = 16384
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 64})
	s, err := New(dev, Options{BlockSize: blockSize, Degree: 4, Now: (&testClock{}).Now})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, err := s.CreateLog("/m", 0o644, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for s.End() < 8 {
		if _, err := s.Append(id, []byte("m"), AppendOptions{}); err != nil && !IsDegraded(err) {
			b.Fatal(err)
		}
	}
	c, err := s.OpenCursor("/m")
	if err != nil {
		b.Fatal(err)
	}
	for { // warm the cache
		if _, err := c.Next(); err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
	}
	c.SeekStart()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := c.Next()
		if err == io.EOF {
			c.SeekStart()
			_, err = c.Next()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
