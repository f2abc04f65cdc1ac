package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clio/internal/wire"
	"clio/internal/wodev"
)

// nvState is what a Load reports: the staged image and its global, or
// neither when cleared.
type nvState struct {
	global int
	image  []byte
}

func loadState(t *testing.T, nv NVRAM) nvState {
	t.Helper()
	g, img, err := nv.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return nvState{g, img}
}

func (s nvState) equal(o nvState) bool {
	return s.global == o.global && bytes.Equal(s.image, o.image) && (s.image == nil) == (o.image == nil)
}

func (s nvState) String() string {
	if s.image == nil {
		return "cleared"
	}
	return fmt.Sprintf("global %d, %d-byte image %.8q", s.global, len(s.image), s.image)
}

var errTorn = errors.New("torn write")

// tearAt makes nv's next slot write stop after k bytes, as a crash in the
// middle of the pwrite would; k at or past the record's length writes all of
// it and succeeds.
func tearAt(t *testing.T, nv *FileNVRAM, path string, k int) {
	t.Helper()
	nv.writeAt = func(p []byte, off int64) (int, error) {
		file, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return 0, err
		}
		defer file.Close()
		if k >= len(p) {
			return file.WriteAt(p, off)
		}
		n, _ := file.WriteAt(p[:k], off)
		return n, errTorn
	}
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestFileNVRAMTearEnumeration is the torn-write guarantee, byte by byte:
// whichever slot the next record goes to, whatever it overwrites there, and
// wherever the write stops, a fresh Load returns exactly the state before
// the call — and the new state only once the whole record is down.
func TestFileNVRAMTearEnumeration(t *testing.T) {
	bases := []struct {
		name  string
		build func(nv *FileNVRAM) error
	}{
		{"next=slot1/never-written", func(nv *FileNVRAM) error {
			return nv.Store(1, fill('a', 40))
		}},
		{"next=slot0/over-longer-record", func(nv *FileNVRAM) error {
			if err := nv.Store(1, fill('a', 90)); err != nil {
				return err
			}
			return nv.Store(2, fill('b', 30))
		}},
		{"next=slot1/over-shorter-record", func(nv *FileNVRAM) error {
			if err := nv.Store(1, fill('a', 10)); err != nil {
				return err
			}
			if err := nv.Store(2, fill('b', 12)); err != nil {
				return err
			}
			return nv.Store(3, fill('c', 70))
		}},
		{"cleared/next-over-the-image-clear-superseded", func(nv *FileNVRAM) error {
			if err := nv.Store(1, fill('a', 20)); err != nil {
				return err
			}
			if err := nv.Store(2, fill('b', 50)); err != nil {
				return err
			}
			return nv.Clear()
		}},
	}
	ops := []struct {
		name string
		do   func(nv *FileNVRAM) error
		recl int // record length
	}{
		{"Store", func(nv *FileNVRAM) error { return nv.Store(9, fill('n', 45)) }, nvRecordHdr + 45 + 4},
		{"Clear", func(nv *FileNVRAM) error { return nv.Clear() }, nvRecordHdr + 4},
	}
	for _, base := range bases {
		for _, op := range ops {
			if op.name == "Clear" && strings.HasPrefix(base.name, "cleared") {
				continue // writes nothing: TestFileNVRAMClearedNeverResurrected
			}
			t.Run(base.name+"/"+op.name, func(t *testing.T) {
				dir := t.TempDir()
				basePath := filepath.Join(dir, "base")
				if err := base.build(NewFileNVRAM(basePath)); err != nil {
					t.Fatal(err)
				}
				baseBytes, err := os.ReadFile(basePath)
				if err != nil {
					t.Fatal(err)
				}
				before := loadState(t, NewFileNVRAM(basePath))

				// The untorn call gives the state a complete write must show.
				if err := op.do(NewFileNVRAM(basePath)); err != nil {
					t.Fatal(err)
				}
				after := loadState(t, NewFileNVRAM(basePath))
				if before.equal(after) {
					t.Fatalf("the call did not change the state (%v)", before)
				}

				path := filepath.Join(dir, "nv")
				for k := 0; k <= op.recl; k++ {
					if err := os.WriteFile(path, baseBytes, 0o644); err != nil {
						t.Fatal(err)
					}
					nv := NewFileNVRAM(path)
					tearAt(t, nv, path, k)
					err := op.do(nv)
					want := before
					if k == op.recl {
						want = after
						if err != nil {
							t.Fatalf("complete write failed: %v", err)
						}
					} else if !errors.Is(err, errTorn) {
						t.Fatalf("torn at %d: err = %v, want the tear", k, err)
					}
					if got := loadState(t, NewFileNVRAM(path)); !got.equal(want) {
						t.Fatalf("torn at byte %d of %d: loaded %v, want %v", k, op.recl, got, want)
					}
				}
			})
		}
	}
}

// TestFileNVRAMModel drives random Store/Clear/tear/reopen sequences against
// MemNVRAM: after every step both must Load the same state, whether the
// handle carried on, was replaced (a restart), or saw its last write torn.
func TestFileNVRAMModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "nv")
		nv := NewFileNVRAM(path)
		model := NewMemNVRAM()
		var relayouts int
		for step := 0; step < 400; step++ {
			// Mostly block-sized images with the odd one past the stride, so
			// the re-layout path is part of the sequence.
			size := 1 + rng.Intn(1024)
			if rng.Intn(25) == 0 {
				size = 3000 + rng.Intn(6000)
			}
			img := make([]byte, size)
			rng.Read(img)
			g := rng.Intn(1 << 20)
			torn := rng.Intn(5) == 0
			if torn {
				tearAt(t, nv, path, rng.Intn(nvRecordHdr+size+4))
			}
			strideBefore := nv.stride
			var err error
			clear := rng.Intn(4) == 0
			if clear {
				err = nv.Clear()
			} else {
				err = nv.Store(g, img)
			}
			nv.writeAt = nil
			if nv.stride != strideBefore {
				relayouts++
			}
			switch {
			case err == nil && clear:
				model.Clear()
			case err == nil:
				model.Store(g, img)
			case !errors.Is(err, errTorn):
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			// A tear is a crash half the time (the handle is gone with the
			// process); otherwise a failed call the caller may retry.
			if (err != nil && rng.Intn(2) == 0) || rng.Intn(10) == 0 {
				nv = NewFileNVRAM(path)
			}
			want := loadState(t, model)
			check := nv
			if rng.Intn(2) == 0 {
				check = NewFileNVRAM(path) // a reader beside the writer
			}
			if got := loadState(t, check); !got.equal(want) {
				t.Fatalf("seed %d step %d (clear=%v torn=%v): loaded %v, model %v", seed, step, clear, err != nil, got, want)
			}
		}
		if relayouts < 2 {
			t.Errorf("seed %d: only %d re-layouts, the sequence never outgrew the stride", seed, relayouts)
		}
	}
}

// TestFileNVRAMClearedNeverResurrected: a Clear is a record outranking both
// images still lying in the slots, so neither comes back on any reopen, and
// clearing again writes nothing. (The tear enumeration covers the next Store
// torn over the superseded image.)
func TestFileNVRAMClearedNeverResurrected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	for i, img := range []string{"first image", "second image"} {
		if err := nv.Store(i+1, []byte(img)); err != nil {
			t.Fatal(err)
		}
	}
	if err := nv.Clear(); err != nil {
		t.Fatal(err)
	}
	// Both images are still on the file, one of them in a valid record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("second image")) {
		t.Fatal("test premise: the superseded image is still in its slot")
	}
	for i := 0; i < 3; i++ {
		re := NewFileNVRAM(path)
		if got := loadState(t, re); got.image != nil {
			t.Fatalf("reopen %d: cleared sidecar loaded %v", i, got)
		}
		if err := re.Clear(); err != nil { // idempotent, and writes nothing new
			t.Fatal(err)
		}
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, raw) {
		t.Error("Clear of a cleared sidecar rewrote the file")
	}
}

// legacySidecar renders the parent commit's layout: the whole file is
// global | len | image | crc.
func legacySidecar(global int, image []byte) []byte {
	buf := wire.PutUint64(nil, uint64(global))
	buf = wire.PutUint32(buf, uint32(len(image)))
	buf = append(buf, image...)
	return wire.PutUint32(buf, wire.Checksum(buf))
}

func TestFileNVRAMLegacySidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	old := legacySidecar(77, []byte("tail staged by the parent commit"))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	nv := NewFileNVRAM(path)
	if got := loadState(t, nv); got.global != 77 || string(got.image) != "tail staged by the parent commit" {
		t.Fatalf("legacy load: %v", got)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, old) {
		t.Fatal("Load rewrote the legacy sidecar")
	}
	// The next Store converts it, atomically.
	if err := nv.Store(78, []byte("first store after the upgrade")); err != nil {
		t.Fatal(err)
	}
	now, _ := os.ReadFile(path)
	if _, ok := parseNVHeader(now); !ok {
		t.Fatal("Store left the sidecar in the legacy layout")
	}
	if got := loadState(t, NewFileNVRAM(path)); got.global != 78 || string(got.image) != "first store after the upgrade" {
		t.Fatalf("after conversion: %v", got)
	}

	// A Clear converts too: removing nothing, it must still end the image.
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewFileNVRAM(path).Clear(); err != nil {
		t.Fatal(err)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.image != nil {
		t.Fatalf("legacy sidecar cleared, loaded %v", got)
	}

	// A torn legacy sidecar is empty, as it was.
	if err := os.WriteFile(path, old[:len(old)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.image != nil {
		t.Fatalf("torn legacy sidecar loaded %v", got)
	}
}

// TestOpenWithParentCommitSidecar: a store whose sidecar the parent commit
// wrote reopens with its staged tail intact.
func TestOpenWithParentCommitSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvram")
	tc := &testClock{}
	opt := Options{Now: tc.Now, NVRAM: NewFileNVRAM(path)}
	svc, dev := newTestService(t, opt)
	opt.BlockSize, opt.Degree = 256, 4
	id := mustCreate(t, svc, "/upgraded")
	mustAppend(t, svc, id, "acked before the upgrade", AppendOptions{Forced: true})
	svc.Crash()
	g, img, err := NewFileNVRAM(path).Load()
	if err != nil || img == nil {
		t.Fatalf("no staged tail to convert: %v", err)
	}
	if err := os.WriteFile(path, legacySidecar(g, img), 0o644); err != nil {
		t.Fatal(err)
	}

	opt.NVRAM = NewFileNVRAM(path)
	re, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.LastRecovery().TailRestored {
		t.Fatal("staged tail not restored from the parent-layout sidecar")
	}
	if got := datas(readAll(t, re, "/upgraded")); len(got) != 1 || got[0] != "acked before the upgrade" {
		t.Fatalf("entries after the upgrade: %q", got)
	}
}

func TestFileNVRAMSecondHandleSeesNewest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	first := NewFileNVRAM(path)
	for i := 1; i <= 5; i++ { // odd count: the newest record is in slot 0, an older one in slot 1
		if err := first.Store(i, []byte(fmt.Sprintf("image %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	second := NewFileNVRAM(path)
	if got := loadState(t, second); got.global != 5 || string(got.image) != "image 5" {
		t.Fatalf("second handle loaded %v", got)
	}
	// It carries on from there: its records outrank everything the first wrote.
	if err := second.Store(6, []byte("image 6")); err != nil {
		t.Fatal(err)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.global != 6 {
		t.Fatalf("after the second handle's store: %v", got)
	}
	// And the first, asked again, reports the file, not its memory.
	if got := loadState(t, first); got.global != 6 {
		t.Fatalf("first handle after the second wrote: %v", got)
	}
}

func TestFileNVRAMRelayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	small := fill('s', 100)
	if err := nv.Store(1, small); err != nil {
		t.Fatal(err)
	}
	if err := nv.Store(2, small); err != nil {
		t.Fatal(err)
	}
	stride := nv.stride

	// A crash in the middle of the re-layout: the new file exists only as a
	// (possibly partial) tmp; the sidecar is the old one.
	big := fill('B', stride+1000)
	rec := appendNVRecord(nil, 99, 3, big)
	if err := os.WriteFile(path+".tmp", rec[:len(rec)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.global != 2 || !bytes.Equal(got.image, small) {
		t.Fatalf("mid-relayout crash: loaded %v", got)
	}

	// The re-layout itself, over that leftover.
	if err := nv.Store(3, big); err != nil {
		t.Fatal(err)
	}
	if nv.stride <= stride {
		t.Fatalf("stride %d did not grow past %d", nv.stride, stride)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp left behind: %v", err)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.global != 3 || !bytes.Equal(got.image, big) {
		t.Fatalf("after re-layout: loaded %v", got)
	}
	// Back on the one-write path, in the new file, both slots in turn.
	for i := 4; i <= 6; i++ {
		if err := nv.Store(i, big[:len(big)-i]); err != nil {
			t.Fatal(err)
		}
		if got := loadState(t, NewFileNVRAM(path)); got.global != i {
			t.Fatalf("store %d after re-layout: loaded %v", i, got)
		}
	}
}

// countWrites makes nv count its slot writes while still performing them.
func countWrites(nv *FileNVRAM, path string, n *int) error {
	file, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	nv.writeAt = func(p []byte, off int64) (int, error) {
		*n++
		return file.WriteAt(p, off)
	}
	return nil
}

// TestFileNVRAMStoreIsOneWrite pins the cost model by counting, not timing:
// a Store in a laid-out sidecar is one WriteAt of the whole record, no
// re-layout, and no allocation.
func TestFileNVRAMStoreIsOneWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	img := fill('i', 1024)
	if err := nv.Store(0, img); err != nil { // lays the file out
		t.Fatal(err)
	}
	var writes int
	if err := countWrites(nv, path, &writes); err != nil {
		t.Fatal(err)
	}
	g := 0
	allocs := testing.AllocsPerRun(200, func() {
		g++
		if err := nv.Store(g, img); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Store allocates %.1f times per call, want 0", allocs)
	}
	if writes != g {
		t.Errorf("%d stores made %d writes, want one each", g, writes)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("a Store on the one-write path left a tmp file: %v", err)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.global != g {
		t.Errorf("loaded %v after %d stores", got, g)
	}
}

func BenchmarkFileNVRAMStore(b *testing.B) {
	path := filepath.Join(b.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	img := fill('i', 1024)
	if err := nv.Store(0, img); err != nil {
		b.Fatal(err)
	}
	var writes int
	if err := countWrites(nv, path, &writes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nv.Store(i, img); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if writes != b.N {
		b.Fatalf("%d stores made %d writes, want one each", b.N, writes)
	}
}
