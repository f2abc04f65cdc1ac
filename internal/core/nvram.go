package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"clio/internal/wire"
)

// NVRAM models the battery-backed RAM of §2.3.1: small rewriteable
// non-volatile storage holding the current partial tail block so that
// frequent forced writes need not seal (and pad) a write-once block each
// time. Its contents survive crashes; Open restores a staged block whose
// position matches the device's written end.
type NVRAM interface {
	// Store persists the staged tail block image for the given global
	// data-block index, replacing any previous image. It keeps no reference
	// to image: a replication follower stores straight from a frame buffer
	// it reuses.
	Store(global int, image []byte) error
	// Load returns the staged image, or (0, nil, nil) when none is staged.
	Load() (global int, image []byte, err error)
	// Clear discards the staged image (the block was sealed to the device).
	Clear() error
}

// StagingNVRAM extends NVRAM with slots for fully sealed block images
// waiting on their asynchronous device write. This is the NVLog-style
// widening of the §2.3.1 tail: the pipelined sealer makes a batch durable
// by staging its sealed image here (fast, rewriteable) and acks the force
// immediately, while the write-once device write proceeds in the
// background. A crash between the two replays the staged images at
// recovery, so an acked force never depends on the device write having
// completed. The pipeline engages only when the configured NVRAM
// implements this interface; otherwise seals stay synchronous.
type StagingNVRAM interface {
	NVRAM
	// StoreSealed persists a sealed block image keyed by the global
	// data-block index it was sealed at, replacing any previous image under
	// that key.
	StoreSealed(global int, image []byte) error
	// DropSealed discards the staged image for the given key, if any.
	DropSealed(global int) error
	// LoadSealed returns all staged sealed images (any order; the caller
	// sorts by global). Torn stores are skipped, matching Load.
	LoadSealed() ([]int, [][]byte, error)
}

// MemNVRAM is an in-process NVRAM simulation. Because battery-backed RAM
// survives power failures, tests model a crash by reusing the same MemNVRAM
// across a Crash/Open pair while discarding everything else.
type MemNVRAM struct {
	mu     sync.Mutex
	global int
	image  []byte
	sealed map[int][]byte
}

// NewMemNVRAM returns an empty NVRAM.
func NewMemNVRAM() *MemNVRAM { return &MemNVRAM{} }

// Store implements NVRAM.
func (m *MemNVRAM) Store(global int, image []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.global = global
	m.image = append(m.image[:0], image...)
	return nil
}

// Load implements NVRAM.
func (m *MemNVRAM) Load() (int, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.image == nil {
		return 0, nil, nil
	}
	out := make([]byte, len(m.image))
	copy(out, m.image)
	return m.global, out, nil
}

// Clear implements NVRAM.
func (m *MemNVRAM) Clear() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.image = nil
	m.global = 0
	return nil
}

// StoreSealed implements StagingNVRAM.
func (m *MemNVRAM) StoreSealed(global int, image []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed == nil {
		m.sealed = make(map[int][]byte)
	}
	m.sealed[global] = append([]byte(nil), image...)
	return nil
}

// DropSealed implements StagingNVRAM.
func (m *MemNVRAM) DropSealed(global int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sealed, global)
	return nil
}

// LoadSealed implements StagingNVRAM.
func (m *MemNVRAM) LoadSealed() ([]int, [][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var globals []int
	var images [][]byte
	for g, img := range m.sealed {
		globals = append(globals, g)
		images = append(images, append([]byte(nil), img...))
	}
	return globals, images, nil
}

// FileNVRAM keeps everything a shard has staged — the tail block and the
// sealed images awaiting their device write — in ONE sidecar file, giving
// file-backed deployments the crash durability the paper gets from
// battery-backed RAM (§2.3.1) at the cost the paper intends: a staging call is
// one store into a fixed region — a single pwrite on a descriptor held open —
// not a file-system transaction.
//
// Layout (little-endian; DESIGN.md "NVRAM sidecar"):
//
//	header  magic "clioNV2\n" | version u32 | stride u32 | crc32c(u32)
//	slot i  at headerLen+i*stride   seq u64 | global u64 | len u24 | kind u8 | image | crc32c
//
// A record's key is its kind — the tail, or a sealed image together with the
// global it was sealed at — and a key's state is its valid record with the
// highest seq: staged when that record carries an image, cleared (dropped)
// when it is empty or there is none. Store, Clear, StoreSealed and DropSealed
// are the same step: encode the whole next record, seq+1, and put it with one
// WriteAt into a free slot, one whose present contents decide no key's state:
// never written or torn, or holding a record that a newer one of its key
// outranks, or an empty record with no older record of its key left to
// outrank. The file has as many slots as it ever needed at once (the tail,
// the seals in flight, one to write into); a put that finds none free takes
// the slot past the end. So a write torn at any byte at most turns a free slot
// into an invalid one and every key loads exactly the state before the call —
// what tmp+rename guaranteed, without the open/close/rename — while a complete
// write changes the state of its own key only. Clearing is a record, never a
// removal, so an image still lying in another slot cannot come back. Nothing
// fsyncs, as before: the sidecar stands in for memory that survives a process
// crash, and the page cache does.
//
// The header is only ever written as part of a whole new file (tmp+rename):
// on the first put and when an image outgrows the stride; the new file
// carries every other key's live record and the new one.
//
// The format is the previous release's two-slot file of tail records with the
// top byte of its length field, always zero there, given to kind: such a file
// loads as it is. Older staged state — a sidecar without the header, per-seal
// files beside it — is refused with the remedy (errOlderLayout).
//
// The write descriptor stays open from one put to the next (NVRAM has no
// Close; the os.File finalizer releases it). Load and LoadSealed re-read the
// path, so they always report what the file holds now, and the next put is
// aimed at that. Recovery checkpoints (see checkpoint.go) apply the same
// torn-write rule to entries on the write-once medium itself: anything that
// fails its trailing checksum is treated as never written.
type FileNVRAM struct {
	mu   sync.Mutex
	path string

	// What the last reload or put established about the file at path.
	loaded bool     // false until the first call has read the file, and after a failed write
	stride int      // slot size from the header; 0 when there is no file yet
	slots  []nvSlot // the record in each slot
	seq    uint64   // the highest seq among them

	file *os.File // write descriptor, opened by the first put after a (re)load or re-layout
	buf  []byte   // record scratch, reused so a put allocates nothing

	// writeAt, when set, replaces file.WriteAt for the slot write: tests
	// count the one write a put makes and tear it at a chosen byte.
	writeAt func(p []byte, off int64) (int, error)
}

// nvSlot describes the record in one slot; the image stays in the file.
type nvSlot struct {
	seq    uint64 // 0: no valid record
	kind   byte
	global int
	n      int // image length; 0 is a clear (tail) or a drop (seal)
}

const (
	nvMagic     = "clioNV2\n"
	nvVersion   = 1
	nvHeaderLen = 8 + 4 + 4 + 4
	nvRecordHdr = 8 + 8 + 4 // seq, global, len|kind
	// nvStrideUnit rounds the slot size up, so block-sized images (the only
	// size a Service stores) never re-lay the file and odd-sized ones rarely.
	nvStrideUnit = 4096

	nvTail byte = 0 // the staged tail block: one key, whatever its global
	nvSeal byte = 1 // a staged sealed image: one key per global
)

// NewFileNVRAM returns an NVRAM backed by the given sidecar file.
func NewFileNVRAM(path string) *FileNVRAM { return &FileNVRAM{path: path} }

// Store implements NVRAM.
func (f *FileNVRAM) Store(global int, image []byte) error { return f.put(nvTail, global, image) }

// Clear implements NVRAM: an empty record, written the way Store writes.
func (f *FileNVRAM) Clear() error { return f.put(nvTail, 0, nil) }

// StoreSealed implements StagingNVRAM.
func (f *FileNVRAM) StoreSealed(global int, image []byte) error { return f.put(nvSeal, global, image) }

// DropSealed implements StagingNVRAM: an empty record under the seal's key.
func (f *FileNVRAM) DropSealed(global int) error { return f.put(nvSeal, global, nil) }

// put is the one write: the key's next record, whole, into a free slot.
func (f *FileNVRAM) put(kind byte, global int, image []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.loaded {
		if _, err := f.reload(); err != nil {
			return err
		}
	}
	if cur, _ := f.find(kind, global); len(image) == 0 && (cur < 0 || f.slots[cur].n == 0) {
		return nil // nothing staged under the key: already clear
	}
	if len(image) >= 1<<24 {
		return fmt.Errorf("clio: nvram image of %d bytes does not fit a sidecar record", len(image))
	}
	rec := nvSlot{seq: f.seq + 1, kind: kind, global: global, n: len(image)}
	f.buf = appendNVRecord(f.buf[:0], rec, image)
	if len(f.buf) > f.stride {
		return f.relayout(rec)
	}
	slot := 0
	for slot < len(f.slots) && !f.free(slot) {
		slot++
	}
	if f.file == nil {
		file, err := os.OpenFile(f.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		f.file = file
	}
	write := f.writeAt
	if write == nil {
		write = f.file.WriteAt
	}
	if _, err := write(f.buf, int64(nvHeaderLen+slot*f.stride)); err != nil {
		f.loaded = false // the slot may hold a torn record now: look before the next put
		return err
	}
	if slot == len(f.slots) {
		f.slots = append(f.slots, rec)
	} else {
		f.slots[slot] = rec
	}
	f.seq = rec.seq
	return nil
}

// find returns the slot holding the key's newest record, -1 when it has none,
// and how many slots hold a record of the key.
func (f *FileNVRAM) find(kind byte, global int) (newest, count int) {
	newest = -1
	for i, s := range f.slots {
		if s.seq == 0 || s.kind != kind || (kind == nvSeal && s.global != global) {
			continue
		}
		count++
		if newest < 0 || s.seq > f.slots[newest].seq {
			newest = i
		}
	}
	return newest, count
}

// free reports whether overwriting the slot — or tearing it — leaves every
// key's state as it is: it holds no record, or one its key's newest outranks,
// or an empty record with no other of its key to outrank.
func (f *FileNVRAM) free(slot int) bool {
	s := f.slots[slot]
	if s.seq == 0 {
		return true
	}
	newest, count := f.find(s.kind, s.global)
	return newest != slot || (s.n == 0 && count == 1)
}

// relayout replaces the sidecar with a fresh file — a header sized for the
// record in f.buf, every other key's live record, then that one — by
// tmp+rename, so a crash in the middle leaves the previous file (the previous
// state) or the new one.
func (f *FileNVRAM) relayout(rec nvSlot) error {
	old, err := os.ReadFile(f.path) // the other keys' images are only there
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	stride := (len(f.buf) + nvStrideUnit - 1) / nvStrideUnit * nvStrideUnit
	out := append(make([]byte, 0, nvHeaderLen+len(f.buf)), nvMagic...)
	out = wire.PutUint32(out, nvVersion)
	out = wire.PutUint32(out, uint32(stride))
	out = wire.PutUint32(out, wire.Checksum(out))
	replaced, _ := f.find(rec.kind, rec.global)
	var slots []nvSlot
	for i, s := range f.slots {
		if newest, _ := f.find(s.kind, s.global); s.n == 0 || newest != i || i == replaced {
			continue
		}
		off, n := nvHeaderLen+i*f.stride, nvRecordHdr+s.n+4
		out = append(append(out, old[off:off+n]...), make([]byte, stride-n)...)
		slots = append(slots, s)
	}
	out = append(out, f.buf...)
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		return err
	}
	f.closeFile() // it names the file the rename just replaced
	f.stride, f.slots, f.seq = stride, append(slots, rec), rec.seq
	return nil
}

func (f *FileNVRAM) closeFile() {
	if f.file != nil {
		f.file.Close()
		f.file = nil
	}
}

// Load implements NVRAM.
func (f *FileNVRAM) Load() (int, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	buf, err := f.reload()
	if err != nil {
		return 0, nil, err
	}
	tail, _ := f.find(nvTail, 0)
	if tail < 0 || f.slots[tail].n == 0 {
		return 0, nil, nil
	}
	return f.slots[tail].global, f.image(buf, tail), nil
}

// LoadSealed implements StagingNVRAM. A torn StoreSealed leaves nothing: the
// seal it staged was never acked, because the ack follows its return.
func (f *FileNVRAM) LoadSealed() (globals []int, images [][]byte, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	buf, err := f.reload()
	if err != nil {
		return nil, nil, err
	}
	for i, s := range f.slots {
		if s.kind != nvSeal || s.n == 0 {
			continue
		}
		if newest, _ := f.find(nvSeal, s.global); newest == i {
			globals = append(globals, s.global)
			images = append(images, f.image(buf, i))
		}
	}
	return globals, images, nil
}

// image returns the image of the record in the given slot of the file bytes.
func (f *FileNVRAM) image(buf []byte, slot int) []byte {
	off := nvHeaderLen + slot*f.stride + nvRecordHdr
	return buf[off : off+f.slots[slot].n]
}

// reload reads the sidecar, every slot, so a handle opened after another
// stopped writing sees that one's newest records, and returns the file's bytes.
func (f *FileNVRAM) reload() ([]byte, error) {
	f.closeFile()
	f.loaded, f.stride, f.slots, f.seq = false, 0, f.slots[:0], 0
	buf, err := os.ReadFile(f.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	stride, laid := parseNVHeader(buf)
	if !laid && len(buf) >= nvHeaderLen {
		return nil, errOlderLayout(f.path)
	}
	dir, base := filepath.Dir(f.path), filepath.Base(f.path)
	names, _ := os.ReadDir(dir) // no directory: no file of any layout in it
	for _, e := range names {
		if n := e.Name(); strings.HasPrefix(n, base+".s") && !strings.HasSuffix(n, ".tmp") {
			return nil, errOlderLayout(filepath.Join(dir, n))
		}
	}
	f.loaded = true
	if !laid {
		return nil, nil // missing, or too short to have been written: nothing staged
	}
	f.stride = stride
	for off := nvHeaderLen; off < len(buf); off += stride {
		s := parseNVRecord(buf[off:min(len(buf), off+stride)])
		f.slots = append(f.slots, s)
		f.seq = max(f.seq, s.seq)
	}
	return buf, nil
}

// errOlderLayout refuses staged state this build has no reader for — a
// sidecar without the header (before the slotted layout), a per-seal file
// beside it (before seals moved into the sidecar) — rather than open the
// store as if nothing were staged.
func errOlderLayout(path string) error {
	return fmt.Errorf("clio: %s holds staged entries in an older build's layout, which this build does not read: "+
		"start the previous release on the store once and stop it cleanly "+
		"(its recovery writes staged seals to the volumes, its shutdown rewrites the sidecar), then retry", path)
}

// appendNVRecord appends one slot record: seq | global | len u24, kind u8 |
// image | crc32c.
func appendNVRecord(b []byte, rec nvSlot, image []byte) []byte {
	b = wire.PutUint64(b, rec.seq)
	b = wire.PutUint64(b, uint64(rec.global))
	b = wire.PutUint32(b, uint32(len(image))|uint32(rec.kind)<<24)
	b = append(b, image...)
	return wire.PutUint32(b, wire.Checksum(b))
}

// parseNVRecord decodes the record at the start of a slot, whose image then
// follows its nvRecordHdr bytes; the zero nvSlot for an empty, torn, truncated
// or foreign one.
func parseNVRecord(slot []byte) nvSlot {
	if len(slot) < nvRecordHdr+4 {
		return nvSlot{}
	}
	seq, _ := wire.Uint64(slot)
	g, _ := wire.Uint64(slot[8:])
	lk, _ := wire.Uint32(slot[16:])
	n, kind := int(lk&(1<<24-1)), byte(lk>>24)
	end := nvRecordHdr + n
	if kind > nvSeal || end+4 > len(slot) {
		return nvSlot{}
	}
	if crc, _ := wire.Uint32(slot[end:]); wire.Checksum(slot[:end]) != crc {
		return nvSlot{}
	}
	return nvSlot{seq: seq, kind: kind, global: int(g), n: n}
}

// parseNVHeader returns the slot stride of a sidecar in the slotted layout.
func parseNVHeader(buf []byte) (stride int, ok bool) {
	if len(buf) < nvHeaderLen || string(buf[:8]) != nvMagic {
		return 0, false
	}
	ver, _ := wire.Uint32(buf[8:])
	s, _ := wire.Uint32(buf[12:])
	crc, _ := wire.Uint32(buf[16:])
	if ver != nvVersion || wire.Checksum(buf[:16]) != crc || s < nvRecordHdr+4 {
		return 0, false
	}
	return int(s), true
}

// CopyTo copies the sidecar — everything staged, which a backup must carry
// because it is not on the volumes yet: the tail and the sealed images a
// pipelined seal acked before their device write — into dir under its own
// name, and reports whether there was one. A record the store has since
// dropped is harmless there: recovery ignores a staged tail or seal that the
// volumes already cover.
func (f *FileNVRAM) CopyTo(dir string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	buf, err := f.reload()
	if err != nil || buf == nil {
		return false, err // nil: nothing was ever staged
	}
	return true, os.WriteFile(filepath.Join(dir, filepath.Base(f.path)), buf, 0o644)
}
