package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"clio/internal/wire"
	"clio/internal/wodev"
)

// nvState is everything an NVRAM reports staged: the tail image and its
// global (neither when cleared), and the sealed images by their key.
type nvState struct {
	global int
	image  []byte
	sealed map[int][]byte
}

func loadState(t *testing.T, nv StagingNVRAM) nvState {
	t.Helper()
	g, img, err := nv.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	gs, imgs, err := nv.LoadSealed()
	if err != nil {
		t.Fatalf("load sealed: %v", err)
	}
	st := nvState{g, img, make(map[int][]byte)}
	for i, g := range gs {
		if _, dup := st.sealed[g]; dup {
			t.Fatalf("load sealed: key %d twice in %v", g, gs)
		}
		st.sealed[g] = imgs[i]
	}
	return st
}

func (s nvState) equal(o nvState) bool {
	return s.global == o.global && bytes.Equal(s.image, o.image) && (s.image == nil) == (o.image == nil) &&
		maps.EqualFunc(s.sealed, o.sealed, bytes.Equal)
}

// keys lists the staged seals' keys in order.
func (s nvState) keys() []int {
	var out []int
	for g := range s.sealed {
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}

func (s nvState) clone() nvState {
	s.sealed = maps.Clone(s.sealed)
	return s
}

func (s nvState) String() string {
	out := "tail cleared"
	if s.image != nil {
		out = fmt.Sprintf("tail global %d, %d-byte image %.8q", s.global, len(s.image), s.image)
	}
	for _, g := range s.keys() {
		out += fmt.Sprintf("; seal %d, %d-byte image %.8q", g, len(s.sealed[g]), s.sealed[g])
	}
	return out
}

var errTorn = errors.New("torn write")

// pwrite is the slot write through a descriptor of the test's own; it stops
// after k bytes when the record is longer, as a crash in the middle of the
// pwrite would.
func pwrite(path string, p []byte, off int64, k int) (int, error) {
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

// tearAt makes nv's next slot write stop after k bytes; k at or past the
// record's length writes all of it and succeeds.
func tearAt(nv *FileNVRAM, path string, k int) {
	nv.writeAt = func(p []byte, off int64) (int, error) { return pwrite(path, p, off, k) }
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// nvStep is one staging call; a script of them builds a sidecar.
type nvStep func(nv *FileNVRAM) error

func stStore(g int, b byte, n int) nvStep {
	return func(nv *FileNVRAM) error { return nv.Store(g, fill(b, n)) }
}
func stSeal(g int, b byte, n int) nvStep {
	return func(nv *FileNVRAM) error { return nv.StoreSealed(g, fill(b, n)) }
}
func stDrop(g int) nvStep         { return func(nv *FileNVRAM) error { return nv.DropSealed(g) } }
func stClear(nv *FileNVRAM) error { return nv.Clear() }

// buildSidecar runs the steps on a fresh sidecar and returns the file.
func buildSidecar(t *testing.T, steps ...nvStep) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base")
	nv := NewFileNVRAM(path)
	for i, step := range steps {
		if err := step(nv); err != nil {
			t.Fatalf("base step %d: %v", i, err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// liveSlot is the mutation the enumeration must catch: the offset of a slot
// where the record rec must never land, one holding the newest record of a key
// that is staged, or that was cleared and still has an older image lying in
// the file. (An empty record torn over its own key's only image does no harm —
// no record is that key cleared — so such a slot is passed over.)
func liveSlot(nv *FileNVRAM, rec nvSlot) (int64, bool) {
	for i, s := range nv.slots {
		newest, count := nv.find(s.kind, s.global)
		own, _ := nv.find(rec.kind, rec.global)
		if s.seq != 0 && newest == i && (s.n > 0 || count > 1) && !(rec.n == 0 && own == i && count == 1) {
			return int64(nvHeaderLen + i*nv.stride), true
		}
	}
	return 0, false
}

// tearViolation runs op on the sidecar in base torn at every byte of its one
// write, and whole, and describes the first outcome that is not the state
// before the call or the state after it, and after it once the write is whole:
// every key — the tail and each staged seal — before or after, never an older
// record and never another key's loss. (A tear that stops where the bytes
// already there equal the rest of the record IS the whole write.) aimAtLive
// redirects the write onto a live record's slot.
func tearViolation(t *testing.T, base []byte, op nvStep, aimAtLive bool) (violation string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "nv")
	restore := func() *FileNVRAM {
		if err := os.WriteFile(path, base, 0o644); err != nil {
			t.Fatal(err)
		}
		return NewFileNVRAM(path)
	}
	nv := restore()
	before := loadState(t, nv)
	// The untorn call gives the state a complete write must show, and the
	// record's length.
	var writes, recl int
	nv.writeAt = func(p []byte, off int64) (int, error) {
		writes, recl = writes+1, len(p)
		return pwrite(path, p, off, len(p))
	}
	if err := op(nv); err != nil {
		t.Fatal(err)
	}
	after := loadState(t, NewFileNVRAM(path))
	if writes != 1 || before.equal(after) {
		t.Fatalf("the call made %d writes and left %v (was %v): want one write and a change", writes, after, before)
	}
	for k := 0; k <= recl; k++ {
		nv := restore()
		nv.writeAt = func(p []byte, off int64) (int, error) {
			if live, ok := liveSlot(nv, parseNVRecord(p)); aimAtLive && ok {
				off = live
			} else if aimAtLive {
				violation = "no slot this record must not land on"
			}
			return pwrite(path, p, off, k)
		}
		err := op(nv)
		if k == recl && err != nil {
			t.Fatalf("complete write failed: %v", err)
		} else if k < recl && !errors.Is(err, errTorn) {
			t.Fatalf("torn at %d: err = %v, want the tear", k, err)
		}
		if got := loadState(t, NewFileNVRAM(path)); !got.equal(after) && (k == recl || !got.equal(before)) {
			return fmt.Sprintf("torn at byte %d of %d: loaded %v, was %v, whole %v", k, recl, got, before, after)
		}
	}
	return violation
}

// TestFileNVRAMTearEnumeration is the torn-write guarantee, byte by byte, for
// the tail and the staged seals together: whichever slot the next record goes
// to, whatever it overwrites there, and wherever the write stops, a fresh
// handle loads exactly the state before the call — and the new state only
// once the whole record is down. Each case is then run again with the write
// aimed at a live record's slot, which the enumeration must catch.
func TestFileNVRAMTearEnumeration(t *testing.T) {
	window := []nvStep{stStore(1, 'a', 40)}
	for g := 1; g <= maxPipeline; g++ {
		window = append(window, stSeal(g, byte('a'+g), 30+g), stStore(g+1, byte('A'+g), 40))
	}
	bases := []struct {
		name  string
		seal  int // a staged seal's key, 0 when there is none
		steps []nvStep
	}{
		{"next=slot1/never-written", 0, []nvStep{stStore(1, 'a', 40)}},
		{"next=slot0/over-longer-record", 0, []nvStep{stStore(1, 'a', 90), stStore(2, 'b', 30)}},
		{"next=slot1/over-shorter-record", 0, []nvStep{stStore(1, 'a', 10), stStore(2, 'b', 12), stStore(3, 'c', 70)}},
		{"cleared/next-over-the-image-clear-superseded", 0, []nvStep{stStore(1, 'a', 20), stStore(2, 'b', 50), stClear}},
		{"seal/beside-the-tail", 1, []nvStep{stStore(1, 'a', 40), stSeal(1, 'b', 60), stStore(2, 'c', 20)}},
		{"seal/drop-record-outranking-its-image", 2, []nvStep{
			stStore(1, 'a', 40), stSeal(1, 'b', 60), stStore(2, 'c', 20), stSeal(2, 'd', 70), stStore(3, 'e', 30), stDrop(1)}},
		{"seal/tail-cleared-seal-staged", 4, []nvStep{stStore(4, 'a', 40), stSeal(4, 'b', 40), stClear}},
		{"seal/window-full", maxPipeline, window},
	}
	ops := []struct {
		name string
		do   func(seal int) nvStep
	}{
		{"Store", func(int) nvStep { return stStore(9, 'n', 45) }},
		{"Clear", func(int) nvStep { return stClear }},
		{"StoreSealed", func(int) nvStep { return stSeal(9, 's', 45) }},
		{"StoreSealed-again", func(seal int) nvStep { return stSeal(seal, 'r', 33) }},
		{"DropSealed", stDrop},
	}
	for _, base := range bases {
		raw := buildSidecar(t, base.steps...)
		for _, op := range ops {
			if op.name == "Clear" && strings.Contains(base.name, "cleared") {
				continue // writes nothing: TestFileNVRAMClearedNeverResurrected
			}
			if (op.name == "StoreSealed-again" || op.name == "DropSealed") && base.seal == 0 {
				continue // no staged seal to replace or drop
			}
			t.Run(base.name+"/"+op.name, func(t *testing.T) {
				if v := tearViolation(t, raw, op.do(base.seal), false); v != "" {
					t.Fatal(v)
				}
				if v := tearViolation(t, raw, op.do(base.seal), true); v == "" {
					t.Fatal("a put aimed at a live record's slot went unnoticed")
				}
			})
		}
	}
}

// TestFileNVRAMModel drives random Store/Clear/StoreSealed/DropSealed/tear/
// reopen sequences against MemNVRAM: after every step both must load the same
// tail and the same staged seals, whether the handle carried on, was replaced
// (a restart), or saw its last write torn.
func TestFileNVRAMModel(t *testing.T) {
	var relayouts, carried int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "nv")
		nv := NewFileNVRAM(path)
		model := NewMemNVRAM()
		nextKey := 0
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
			if rng.Intn(5) == 0 {
				tearAt(nv, path, rng.Intn(nvRecordHdr+size+4))
			}
			live := loadState(t, model).keys()
			strideBefore := nv.stride
			var err error
			var apply func()
			switch what := rng.Intn(8); {
			case what < 2:
				err, apply = nv.Clear(), func() { model.Clear() }
			case what < 4:
				err, apply = nv.Store(g, img), func() { model.Store(g, img) }
			case what < 6 && len(live) <= maxPipeline: // a new key, or now and then a staged one again
				if g = nextKey; len(live) > 0 && rng.Intn(6) == 0 {
					g = live[rng.Intn(len(live))]
				}
				nextKey++
				err, apply = nv.StoreSealed(g, img), func() { model.StoreSealed(g, img) }
			default: // the oldest staged seal, as the sealer would; or one that is not staged
				g = nextKey + 7
				if len(live) > 0 && rng.Intn(8) != 0 {
					g = live[0]
				}
				err, apply = nv.DropSealed(g), func() { model.DropSealed(g) }
			}
			nv.writeAt = nil
			if nv.stride != strideBefore {
				relayouts++
				if len(live) > 0 {
					carried++
				}
			}
			if err == nil {
				apply()
			} else if !errors.Is(err, errTorn) {
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
				t.Fatalf("seed %d step %d (torn=%v): loaded %v, model %v", seed, step, err != nil, got, want)
			}
			if slots := len(nv.slots); slots > maxPipeline+4 {
				t.Fatalf("seed %d step %d: the sidecar grew to %d slots for %d keys", seed, step, slots, len(live)+1)
			}
		}
	}
	if relayouts < 16 || carried < 4 {
		t.Errorf("%d re-layouts, %d of them with seals staged: the sequences hardly left the one-write path", relayouts, carried)
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

// TestFileNVRAMDroppedNeverResurrected is the same for a seal, and the harder
// half of it: the drop record's own slot comes up for reuse while the image it
// outranks may still lie, valid, in another. Whatever is put next — by this
// handle or one opened over the file — the image must go first.
func TestFileNVRAMDroppedNeverResurrected(t *testing.T) {
	for puts := 1; puts <= 6; puts++ {
		for _, reopen := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "nv")
			nv := NewFileNVRAM(path)
			steps := []nvStep{stStore(1, 't', 30), stSeal(1, 'X', 30), stStore(2, 't', 30), stDrop(1)}
			for i := 0; i < puts; i++ { // tail stores and a seal staged and retired, turn about
				steps = append(steps, stStore(3+i, 't', 20), stSeal(10+i, 's', 20), stDrop(10+i))
			}
			for i, step := range steps {
				if reopen {
					nv = NewFileNVRAM(path)
				}
				if err := step(nv); err != nil {
					t.Fatal(err)
				}
				if got := loadState(t, NewFileNVRAM(path)); i >= 3 && got.sealed[1] != nil {
					t.Fatalf("%d puts, reopen=%v: dropped seal 1 is back after step %d: %v", puts, reopen, i, got)
				}
			}
			if err := nv.DropSealed(1); err != nil { // idempotent
				t.Fatal(err)
			}
		}
	}
}

// parentSidecar renders the sidecar as the previous release wrote it, spelled
// out rather than through this build's encoder: the header, then two slots of
// seq u64 | global u64 | len u32 | image | crc32c, tail records all.
func parentSidecar(stride int, slots ...nvState) []byte {
	out := append([]byte(nil), "clioNV2\n"...)
	out = wire.PutUint32(out, 1)
	out = wire.PutUint32(out, uint32(stride))
	out = wire.PutUint32(out, wire.Checksum(out))
	for i, s := range slots {
		rec := wire.PutUint64(nil, uint64(i+1)) // seq: later slots are newer
		rec = wire.PutUint64(rec, uint64(s.global))
		rec = wire.PutUint32(rec, uint32(len(s.image)))
		rec = append(rec, s.image...)
		rec = wire.PutUint32(rec, wire.Checksum(rec))
		out = append(out[:20+i*stride], rec...)
		out = append(out, make([]byte, stride-len(rec))...)
	}
	return out
}

// legacySidecar renders the layout before the slotted one, which the per-seal
// files also had: the whole file is global | len | image | crc.
func legacySidecar(global int, image []byte) []byte {
	buf := wire.PutUint64(nil, uint64(global))
	buf = wire.PutUint32(buf, uint32(len(image)))
	buf = append(buf, image...)
	return wire.PutUint32(buf, wire.Checksum(buf))
}

// TestFileNVRAMLegacySidecar: staged state in a layout this build does not
// read — a sidecar without the header, a per-seal file beside the sidecar —
// is never opened as "nothing staged". Every call that would act on it fails
// with the remedy, and leaves the files as they are.
func TestFileNVRAMLegacySidecar(t *testing.T) {
	old := legacySidecar(77, []byte("tail staged by a build before the slotted layout"))
	cases := []struct {
		name  string
		files map[string][]byte // beside and including "nvram.clio"
		named string            // the file the refusal must name; "" when it opens
	}{
		{"magic-less sidecar", map[string][]byte{"nvram.clio": old}, "nvram.clio"},
		{"torn magic-less sidecar", map[string][]byte{"nvram.clio": old[:len(old)-3]}, "nvram.clio"},
		{"per-seal file beside a slotted sidecar", map[string][]byte{
			"nvram.clio":           buildSidecar(t, stStore(5, 'a', 40)),
			"nvram.clio.s00000004": legacySidecar(4, fill('s', 256)),
		}, "nvram.clio.s00000004"},
		{"per-seal file and no sidecar", map[string][]byte{"nvram.clio.s00000000": legacySidecar(0, fill('s', 256))}, "nvram.clio.s00000000"},
		{"only a torn per-seal store, never acked", map[string][]byte{"nvram.clio.s00000004.tmp": []byte("half")}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(dir, "nvram.clio")
			// A store over it does not open.
			dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256})
			svc, err := New(dev, Options{BlockSize: 256, NVRAM: NewFileNVRAM(path)})
			if (err != nil) != (tc.named != "") {
				t.Errorf("New over it: %v", err)
			}
			if err == nil {
				svc.Crash()
			}
			_, _, lerr := NewFileNVRAM(path).Load()
			_, _, serr := NewFileNVRAM(path).LoadSealed()
			_, cerr := NewFileNVRAM(path).CopyTo(t.TempDir())
			calls := map[string]error{
				"Load": lerr, "LoadSealed": serr, "CopyTo": cerr,
				"Store":       NewFileNVRAM(path).Store(78, []byte("first store after the upgrade")),
				"StoreSealed": NewFileNVRAM(path).StoreSealed(78, []byte("first seal after the upgrade")),
			}
			for call, err := range calls {
				if tc.named == "" {
					if err != nil {
						t.Errorf("%s: %v", call, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, tc.named)) ||
					!strings.Contains(err.Error(), "start the previous release on the store once and stop it cleanly") {
					t.Errorf("%s = %v, want a refusal naming %s and the remedy", call, err, tc.named)
				}
			}
			for name, data := range tc.files {
				if now, _ := os.ReadFile(filepath.Join(dir, name)); tc.named != "" && !bytes.Equal(now, data) {
					t.Errorf("%s was rewritten by a refused call", name)
				}
			}
		})
	}
}

// TestOpenWithParentCommitSidecar: a store whose sidecar the parent commit
// wrote — two slots, tail records only — reopens with its staged tail intact,
// and the same file takes this build's records from the next put on.
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
	stale := append([]byte(nil), img...)
	stale[0] ^= 0xFF
	parent := parentSidecar(4096, nvState{global: g, image: stale}, nvState{global: g, image: img})
	if err := os.WriteFile(path, parent, 0o644); err != nil {
		t.Fatal(err)
	}

	opt.NVRAM = NewFileNVRAM(path)
	re, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.LastRecovery().TailRestored {
		t.Fatal("staged tail not restored from the parent commit's sidecar")
	}
	mustAppend(t, re, id, "acked after it", AppendOptions{Forced: true})
	if got := datas(readAll(t, re, "/upgraded")); len(got) != 2 || got[0] != "acked before the upgrade" || got[1] != "acked after it" {
		t.Fatalf("entries after the upgrade: %q", got)
	}
	now, _ := os.ReadFile(path)
	if len(now) != len(parent) || !bytes.Equal(now[:nvHeaderLen], parent[:nvHeaderLen]) {
		t.Errorf("the parent's file was replaced (%d bytes, was %d), not carried on in place", len(now), len(parent))
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
	if err := first.StoreSealed(5, []byte("sealed 5")); err != nil {
		t.Fatal(err)
	}
	second := NewFileNVRAM(path)
	if got := loadState(t, second); got.global != 5 || string(got.image) != "image 5" || string(got.sealed[5]) != "sealed 5" {
		t.Fatalf("second handle loaded %v", got)
	}
	// It carries on from there: its records outrank everything the first wrote.
	if err := second.Store(6, []byte("image 6")); err != nil {
		t.Fatal(err)
	}
	if err := second.DropSealed(5); err != nil {
		t.Fatal(err)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.global != 6 || len(got.sealed) != 0 {
		t.Fatalf("after the second handle's puts: %v", got)
	}
	// And the first, asked again, reports the file, not its memory.
	if got := loadState(t, first); got.global != 6 || len(got.sealed) != 0 {
		t.Fatalf("first handle after the second wrote: %v", got)
	}
}

// TestFileNVRAMRelayout: an image that outgrows the stride replaces the whole
// file, and the new file carries every other key's staged image — not the
// dropped ones — so on both sides of the rename, and with the new file written
// to any length beside the old, every key loads its state before or after.
func TestFileNVRAMRelayout(t *testing.T) {
	small := fill('s', 100)
	base := buildSidecar(t, stStore(1, 's', 100), stSeal(1, 'x', 200), stStore(2, 's', 100),
		stSeal(2, 'y', 300), stSeal(3, 'z', 150), stDrop(1))
	stride, _ := parseNVHeader(base)
	big := fill('B', stride+1000)
	ops := []struct {
		name string
		op   nvStep
		want func(before nvState) nvState
	}{
		{"Store", func(nv *FileNVRAM) error { return nv.Store(3, big) },
			func(st nvState) nvState { st.global, st.image = 3, big; return st }},
		{"StoreSealed", func(nv *FileNVRAM) error { return nv.StoreSealed(4, big) },
			func(st nvState) nvState { st.sealed[4] = big; return st }},
		{"StoreSealed-again", func(nv *FileNVRAM) error { return nv.StoreSealed(2, big) },
			func(st nvState) nvState { st.sealed[2] = big; return st }},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nv")
			if err := os.WriteFile(path, base, 0o644); err != nil {
				t.Fatal(err)
			}
			nv := NewFileNVRAM(path)
			before := loadState(t, nv)
			if before.global != 2 || !bytes.Equal(before.image, small) || len(before.sealed) != 2 {
				t.Fatalf("test premise: base loads %v", before)
			}
			if err := tc.op(nv); err != nil {
				t.Fatal(err)
			}
			if nv.stride <= stride {
				t.Fatalf("stride %d did not grow past %d", nv.stride, stride)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("tmp left behind: %v", err)
			}
			after := tc.want(before.clone())
			if got := loadState(t, NewFileNVRAM(path)); !got.equal(after) {
				t.Fatalf("after re-layout: loaded %v, want %v", got, after)
			}
			fresh, _ := os.ReadFile(path)
			if bytes.Contains(fresh, fill('x', 200)) {
				t.Error("the new file carries the dropped seal's image")
			}

			// Before the rename: the old file, and the new one beside it as a
			// tmp written to any length.
			if err := os.WriteFile(path, base, 0o644); err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= len(fresh); k += 1 + k/64 {
				if err := os.WriteFile(path+".tmp", fresh[:k], 0o644); err != nil {
					t.Fatal(err)
				}
				if got := loadState(t, NewFileNVRAM(path)); !got.equal(before) {
					t.Fatalf("tmp written to %d of %d bytes: loaded %v, want %v", k, len(fresh), got, before)
				}
			}
			// The re-layout itself, over that leftover; then back on the
			// one-write path in the new file, every key in turn.
			nv = NewFileNVRAM(path)
			if err := tc.op(nv); err != nil {
				t.Fatal(err)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, fresh) {
				t.Error("the same re-layout wrote a different file")
			}
			var writes int
			nv.writeAt = func(p []byte, off int64) (int, error) {
				writes++
				return pwrite(path, p, off, len(p))
			}
			want := after.clone()
			for i := 4; i <= 9; i++ {
				img := big[:len(big)-i]
				if err := nv.Store(i, img); err != nil {
					t.Fatal(err)
				}
				if err := nv.StoreSealed(i+10, img); err != nil {
					t.Fatal(err)
				}
				if err := nv.DropSealed(i + 9); err != nil {
					t.Fatal(err)
				}
				want.global, want.image = i, img
				want.sealed[i+10] = img
				delete(want.sealed, i+9)
				if got := loadState(t, NewFileNVRAM(path)); !got.equal(want) {
					t.Fatalf("round %d after re-layout: loaded %v, want %v", i, got, want)
				}
			}
			if writes != 6*3-1 { // the first round's drop finds key 13 not staged
				t.Errorf("%d writes for 17 puts after the re-layout", writes)
			}
		})
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
// a put in a laid-out sidecar — a Store, a StoreSealed, the DropSealed that
// retires it — is one WriteAt of the whole record, no re-layout, no other
// file, and no allocation.
func TestFileNVRAMStoreIsOneWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nv")
	nv := NewFileNVRAM(path)
	img := fill('i', 1024)
	if err := nv.Store(0, img); err != nil { // lays the file out
		t.Fatal(err)
	}
	for g := 1; g <= maxPipeline; g++ { // and grows it to the slots a full window needs
		if err := nv.StoreSealed(g, img); err != nil {
			t.Fatal(err)
		}
	}
	var writes int
	if err := countWrites(nv, path, &writes); err != nil {
		t.Fatal(err)
	}
	g := maxPipeline
	allocs := testing.AllocsPerRun(200, func() {
		g++
		if err := nv.Store(g, img); err != nil {
			t.Fatal(err)
		}
		if err := nv.DropSealed(g - maxPipeline); err != nil {
			t.Fatal(err)
		}
		if err := nv.StoreSealed(g, img); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a Store, DropSealed and StoreSealed allocate %.1f times, want 0", allocs)
	}
	if puts := 3 * (g - maxPipeline); writes != puts {
		t.Errorf("%d puts made %d writes, want one each", puts, writes)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("the sidecar is %d files, want one: %v", len(names), names)
	}
	if len(nv.slots) > maxPipeline+2 {
		t.Errorf("%d slots for a tail and %d seals in flight", len(nv.slots), maxPipeline)
	}
	if got := loadState(t, NewFileNVRAM(path)); got.global != g || len(got.sealed) != maxPipeline || got.sealed[g] == nil {
		t.Errorf("loaded %v after %d rounds", got, g)
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

// BenchmarkFileNVRAMStoreSealed is one seal through a full pipeline window:
// its image staged, the window's oldest dropped.
func BenchmarkFileNVRAMStoreSealed(b *testing.B) {
	path := filepath.Join(b.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	img := fill('i', 1024)
	if err := nv.Store(0, img); err != nil {
		b.Fatal(err)
	}
	for g := 0; g < maxPipeline; g++ {
		if err := nv.StoreSealed(g, img); err != nil {
			b.Fatal(err)
		}
	}
	var writes int
	if err := countWrites(nv, path, &writes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nv.DropSealed(i); err != nil {
			b.Fatal(err)
		}
		if err := nv.StoreSealed(i+maxPipeline, img); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if writes != 2*b.N {
		b.Fatalf("%d seals staged and dropped made %d writes, want one each", b.N, writes)
	}
}
