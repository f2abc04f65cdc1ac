package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// data-block index, replacing any previous image.
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

// FileNVRAM persists the staged tail block in a sidecar file, giving
// file-backed deployments the crash durability the paper gets from
// battery-backed RAM (§2.3.1) at the cost the paper intends: a forced write
// is ONE store into a fixed region — a single pwrite on a descriptor held
// open — not a file-system transaction.
//
// Layout (little-endian; DESIGN.md "NVRAM sidecar"):
//
//	header  magic "clioNV2\n" | version u32 | stride u32 | crc32c(u32)
//	slot 0  at headerLen          seq u64 | global u64 | len u32 | image | crc32c
//	slot 1  at headerLen+stride   same
//
// The valid record with the highest seq is the staged state; len 0 means
// "cleared". Store and Clear write the whole next record, seq+1, with one
// WriteAt into the slot that does NOT hold the newest valid record, so a
// write torn at any byte leaves the newest record untouched and Load returns
// exactly the state before the call — what tmp+rename guaranteed, without
// the open/close/rename. Clear writes a record rather than removing
// anything, so the older slot can never resurrect a cleared tail. Neither
// path fsyncs, as before: the sidecar stands in for memory that survives a
// process crash, and the page cache does.
//
// The header is only ever written as part of a whole new file (tmp+rename):
// on the first Store, when an image outgrows the stride, and to convert a
// sidecar in the parent layout (global u64 | len u32 | image | crc, no
// magic), which Load still reads so an upgraded store keeps its staged tail.
//
// The write descriptor stays open from one Store to the next (NVRAM has no
// Close; the os.File finalizer releases it). Load re-reads the path, so it
// always reports what the file holds now, and the next Store is aimed at
// that. Recovery checkpoints (see
// checkpoint.go) apply the same torn-write rule to entries on the write-once
// medium itself: anything that fails its trailing checksum is treated as
// never written.
type FileNVRAM struct {
	mu   sync.Mutex
	path string

	// What the last reload or put established about the file at path.
	loaded bool   // false until the first Load/Store/Clear has read the file
	laid   bool   // it carries a valid header (else missing, parent layout or garbage)
	stride int    // slot size from the header
	newest int    // slot holding the newest valid record, -1 when neither does
	seq    uint64 // that record's seq
	staged bool   // the current state (either layout) is a staged image, not cleared

	file *os.File // write descriptor, opened by the first put after a (re)load or re-layout
	buf  []byte   // record scratch, reused so a Store allocates nothing

	// writeAt, when set, replaces file.WriteAt for the slot write: tests
	// count the one write a Store makes and tear it at a chosen byte.
	writeAt func(p []byte, off int64) (int, error)
}

const (
	nvMagic     = "clioNV2\n"
	nvVersion   = 1
	nvHeaderLen = 8 + 4 + 4 + 4
	nvRecordHdr = 8 + 8 + 4 // seq, global, len
	// nvStrideUnit rounds the slot size up, so block-sized images (the only
	// size a Service stores) never re-lay the file and odd-sized ones rarely.
	nvStrideUnit = 4096
)

// NewFileNVRAM returns an NVRAM backed by the given sidecar file.
func NewFileNVRAM(path string) *FileNVRAM { return &FileNVRAM{path: path} }

// Store implements NVRAM: one WriteAt into the slot the newest record is not in.
func (f *FileNVRAM) Store(global int, image []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.put(global, image)
}

// Clear implements NVRAM: an empty record, written the way Store writes.
func (f *FileNVRAM) Clear() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.put(0, nil)
}

func (f *FileNVRAM) put(global int, image []byte) error {
	if !f.loaded {
		if _, _, err := f.reload(); err != nil {
			return err
		}
	}
	if len(image) == 0 && !f.staged {
		return nil // nothing staged in either layout: already clear
	}
	f.buf = appendNVRecord(f.buf[:0], f.seq+1, global, image)
	if !f.laid || len(f.buf) > f.stride {
		return f.relayout(len(image) > 0)
	}
	if f.file == nil {
		file, err := os.OpenFile(f.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		f.file = file
	}
	slot := 0
	if f.newest == 0 {
		slot = 1
	}
	write := f.writeAt
	if write == nil {
		write = f.file.WriteAt
	}
	if _, err := write(f.buf, int64(nvHeaderLen+slot*f.stride)); err != nil {
		return err
	}
	f.newest, f.seq, f.staged = slot, f.seq+1, len(image) > 0
	return nil
}

// relayout replaces the sidecar with a fresh file — a header sized for the
// record in f.buf, and that record in slot 0 — by tmp+rename, so a crash in
// the middle leaves the previous file (the previous state) or the new one.
func (f *FileNVRAM) relayout(staged bool) error {
	stride := (len(f.buf) + nvStrideUnit - 1) / nvStrideUnit * nvStrideUnit
	out := append(make([]byte, 0, nvHeaderLen+len(f.buf)), nvMagic...)
	out = wire.PutUint32(out, nvVersion)
	out = wire.PutUint32(out, uint32(stride))
	out = wire.PutUint32(out, wire.Checksum(out))
	out = append(out, f.buf...)
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		return err
	}
	f.closeFile() // it names the file the rename just replaced
	f.laid, f.stride, f.newest, f.seq, f.staged = true, stride, 0, f.seq+1, staged
	return nil
}

func (f *FileNVRAM) closeFile() {
	if f.file != nil {
		f.file.Close()
		f.file = nil
	}
}

// Load implements NVRAM. It re-reads the path, both slots, so a handle
// opened after another stopped writing sees that one's newest record, and
// the next Store is aimed at the file as it is now.
func (f *FileNVRAM) Load() (int, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reload()
}

// reload reads the sidecar, works out its layout and newest record for the
// next put, and returns the staged image, if any.
func (f *FileNVRAM) reload() (int, []byte, error) {
	f.closeFile()
	f.loaded, f.laid, f.stride, f.newest, f.seq, f.staged = false, false, 0, -1, 0, false
	buf, err := os.ReadFile(f.path)
	if err != nil && !os.IsNotExist(err) {
		return 0, nil, err
	}
	f.loaded = true
	var global int
	var image []byte
	if stride, ok := parseNVHeader(buf); ok {
		f.laid, f.stride = true, stride
		for slot := 0; slot < 2; slot++ {
			off := nvHeaderLen + slot*stride
			if off > len(buf) {
				break
			}
			seq, g, img, ok := parseNVRecord(buf[off:min(len(buf), off+stride)])
			if ok && (f.newest < 0 || seq > f.seq) {
				f.newest, f.seq, global, image = slot, seq, g, img
			}
		}
	} else {
		// Missing, the parent layout, or garbage: the next put re-lays the
		// file out. A torn or foreign file is treated as empty.
		if global, image, err = parseLegacyNVRAM(buf); err != nil {
			return 0, nil, fmt.Errorf("clio: nvram file %s inconsistent", f.path)
		}
	}
	f.staged = len(image) > 0
	if !f.staged {
		return 0, nil, nil
	}
	return global, image, nil
}

// appendNVRecord appends one slot record: seq | global | len | image | crc32c.
func appendNVRecord(b []byte, seq uint64, global int, image []byte) []byte {
	b = wire.PutUint64(b, seq)
	b = wire.PutUint64(b, uint64(global))
	b = wire.PutUint32(b, uint32(len(image)))
	b = append(b, image...)
	return wire.PutUint32(b, wire.Checksum(b))
}

// parseNVRecord decodes the record at the start of a slot; ok is false for
// an empty, torn or truncated one.
func parseNVRecord(slot []byte) (seq uint64, global int, image []byte, ok bool) {
	if len(slot) < nvRecordHdr+4 {
		return 0, 0, nil, false
	}
	seq, _ = wire.Uint64(slot)
	g, _ := wire.Uint64(slot[8:])
	n, _ := wire.Uint32(slot[16:])
	end := nvRecordHdr + int(n)
	if n > uint32(len(slot)) || end+4 > len(slot) {
		return 0, 0, nil, false
	}
	crc, _ := wire.Uint32(slot[end:])
	if wire.Checksum(slot[:end]) != crc {
		return 0, 0, nil, false
	}
	return seq, int(g), slot[nvRecordHdr:end], true
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

// parseLegacyNVRAM reads the parent layout — the whole file is global(u64)
// len(u32) image crc(u32) — which is also the layout of the staged-seal
// sidecars. A short or checksum-failing file is a torn store: empty.
func parseLegacyNVRAM(buf []byte) (global int, image []byte, err error) {
	if len(buf) < 16 {
		return 0, nil, nil
	}
	body, crcBytes := buf[:len(buf)-4], buf[len(buf)-4:]
	crc, _ := wire.Uint32(crcBytes)
	if wire.Checksum(body) != crc {
		return 0, nil, nil
	}
	g, _ := wire.Uint64(body)
	n, _ := wire.Uint32(body[8:])
	if int(n) != len(body)-12 {
		return 0, nil, errors.New("length mismatch")
	}
	return int(g), body[12:], nil
}

// sealedPath names the per-image sidecar for a staged sealed block.
func (f *FileNVRAM) sealedPath(global int) string {
	return f.path + fmt.Sprintf(".s%08d", global)
}

// StoreSealed implements StagingNVRAM: one sidecar file per in-flight seal,
// global(u64) len(u32) image crc(u32), written by tmp+rename — a rename per
// seal, not per force (seals are a fraction of forces).
func (f *FileNVRAM) StoreSealed(global int, image []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	buf := wire.PutUint64(nil, uint64(global))
	buf = wire.PutUint32(buf, uint32(len(image)))
	buf = append(buf, image...)
	buf = wire.PutUint32(buf, wire.Checksum(buf))
	path := f.sealedPath(global)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// DropSealed implements StagingNVRAM.
func (f *FileNVRAM) DropSealed(global int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := os.Remove(f.sealedPath(global))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// sealedFiles lists the staged sealed images' sidecars; a half-written .tmp
// is never part of the state.
func (f *FileNVRAM) sealedFiles() ([]string, error) {
	matches, err := filepath.Glob(f.path + ".s*")
	return slices.DeleteFunc(matches, func(p string) bool { return strings.HasSuffix(p, ".tmp") }), err
}

// LoadSealed implements StagingNVRAM. Torn sidecars (crash mid-StoreSealed)
// are skipped: the seal they staged was never acked, because the ack
// happens only after StoreSealed returns.
func (f *FileNVRAM) LoadSealed() ([]int, [][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	matches, err := f.sealedFiles()
	if err != nil {
		return nil, nil, err
	}
	var globals []int
	var images [][]byte
	for _, path := range matches {
		buf, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, nil, err
		}
		g, img, err := parseLegacyNVRAM(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("clio: nvram sidecar %s inconsistent", path)
		}
		if img == nil {
			continue // torn store: never acked, safe to drop
		}
		globals = append(globals, g)
		images = append(images, img)
	}
	return globals, images, nil
}

// CopyTo copies the staged state — what a backup must carry because it is not
// on the volumes yet — into dir under the files' own names and returns how
// many it copied: the tail sidecar and every staged sealed image (blocks a
// pipelined seal acked before their device write). An image left in dir by an
// earlier copy and since dropped by the store is harmless: recovery ignores a
// staged tail or seal that the volumes already cover.
func (f *FileNVRAM) CopyTo(dir string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	srcs, err := f.sealedFiles()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, src := range append(srcs, f.path) {
		data, err := os.ReadFile(src)
		if os.IsNotExist(err) {
			continue // nothing staged, or dropped since the listing: its block is on the device
		}
		if err != nil {
			return n, err
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
