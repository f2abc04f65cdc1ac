// Package archive implements incremental backup and cold tiering of volume
// sequences — operationalizing the paper's §1 observation that conventional
// "backup procedures involve copying whole files, which is particularly
// inefficient ... for large log files, since only the tail end of the file
// will have changed since the last backup." A log volume is append-only, so
// an archive only ever copies the blocks written since the previous run;
// everything earlier is immutable and already captured.
//
// Storage is abstracted behind the Backend interface: a named-object store
// with ranged reads and writes. The directory implementation (Dir) holds one
// object per volume (its raw block image, growing monotonically) plus a
// manifest object recording how many blocks of each volume have been
// captured. The same backend carries both use cases:
//
//   - clio backup / verify-backup archive a whole store incrementally, and
//     Restore materializes write-once devices from the archive;
//   - the compactor demotes fully-compacted sealed volumes to a cold tier
//     (BackupVolume) and serves reads of demoted blocks straight from the
//     backend (ReadVolumeBlock).
package archive

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"clio/internal/volume"
	"clio/internal/wodev"
)

// ErrNotArchive indicates a backend without a manifest.
var ErrNotArchive = errors.New("archive: not an archive")

// ErrNotFound indicates a named object absent from the backend.
var ErrNotFound = errors.New("archive: object not found")

// Backend is a named-object store holding sealed volume images. Volume
// images only ever grow (write-once media), so WriteAt extends objects
// in place; Put replaces an object atomically (used for the manifest).
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put atomically replaces (or creates) the named object.
	Put(ctx context.Context, name string, data []byte) error
	// WriteAt writes data at byte offset off, extending the object as
	// needed (a missing object is created).
	WriteAt(ctx context.Context, name string, off int64, data []byte) error
	// ReadAt reads len(dst) bytes at byte offset off. Short objects return
	// the bytes available and io.ErrUnexpectedEOF semantics are not
	// required: n < len(dst) with a nil error is allowed at end of object.
	// A missing object returns ErrNotFound.
	ReadAt(ctx context.Context, name string, off int64, dst []byte) (int, error)
	// Size returns the object's length in bytes, or ErrNotFound.
	Size(ctx context.Context, name string) (int64, error)
}

// Dir is the directory-backed Backend: one file per object. The directory
// is created lazily on first write, so configuring a cold tier costs
// nothing until a volume is actually demoted.
type Dir struct {
	root string
	mu   sync.Mutex // serializes mkdir and Put's tmp+rename
}

// NewDir returns a Backend over the given directory.
func NewDir(root string) *Dir { return &Dir{root: root} }

func (d *Dir) ensure() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return os.MkdirAll(d.root, 0o755)
}

func (d *Dir) path(name string) string { return filepath.Join(d.root, name) }

func (d *Dir) Put(ctx context.Context, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := d.ensure(); err != nil {
		return err
	}
	tmp := d.path(name + ".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.path(name))
}

func (d *Dir) WriteAt(ctx context.Context, name string, off int64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := d.ensure(); err != nil {
		return err
	}
	f, err := os.OpenFile(d.path(name), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, off); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (d *Dir) ReadAt(ctx context.Context, name string, off int64, dst []byte) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	f, err := os.Open(d.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := f.ReadAt(dst, off)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}

func (d *Dir) Size(ctx context.Context, name string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(d.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Mem is the in-memory Backend, for tests and mem-backed stores (it lets a
// reopened in-memory service keep its cold tier across simulated crashes).
type Mem struct {
	mu   sync.Mutex
	objs map[string][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{objs: make(map[string][]byte)} }

func (m *Mem) Put(ctx context.Context, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objs[name] = append([]byte(nil), data...)
	return nil
}

func (m *Mem) WriteAt(ctx context.Context, name string, off int64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	obj := m.objs[name]
	end := int(off) + len(data)
	if end > len(obj) {
		grown := make([]byte, end)
		copy(grown, obj)
		obj = grown
	}
	copy(obj[off:], data)
	m.objs[name] = obj
	return nil
}

func (m *Mem) ReadAt(ctx context.Context, name string, off int64, dst []byte) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	obj, ok := m.objs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if off >= int64(len(obj)) {
		return 0, nil
	}
	return copy(dst, obj[off:]), nil
}

func (m *Mem) Size(ctx context.Context, name string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	obj, ok := m.objs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(obj)), nil
}

const manifestName = "MANIFEST"

// Result reports one backup run.
type Result struct {
	// VolumesSeen is the number of volumes examined.
	VolumesSeen int
	// BlocksCopied is the number of blocks copied this run — the increment.
	BlocksCopied int
	// BlocksSkipped is the number of already-archived blocks not re-read.
	BlocksSkipped int
	// ColdVolumes is the number of demoted volumes adopted from a store's
	// cold tier into the backup archive (clio backup carries them along so
	// the archive holds the complete sequence).
	ColdVolumes int
}

// volState records one volume's archived extent and geometry.
type volState struct {
	blocks   int // blocks archived
	capacity int // device capacity, needed to restore global offsets
}

// manifest maps volume index → archived state.
type manifest map[uint32]volState

func loadManifest(ctx context.Context, be Backend) (manifest, error) {
	m := manifest{}
	size, err := be.Size(ctx, manifestName)
	if errors.Is(err, ErrNotFound) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := be.ReadAt(ctx, manifestName, 0, data); err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var idx uint32
		var blocks, capacity int
		if _, err := fmt.Sscanf(line, "%d %d %d", &idx, &blocks, &capacity); err != nil {
			return nil, fmt.Errorf("archive: bad manifest line %q", line)
		}
		m[idx] = volState{blocks: blocks, capacity: capacity}
	}
	return m, nil
}

func (m manifest) save(ctx context.Context, be Backend) error {
	var sb strings.Builder
	idxs := make([]int, 0, len(m))
	for idx := range m {
		idxs = append(idxs, int(idx))
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		st := m[uint32(idx)]
		fmt.Fprintf(&sb, "%d %d %d\n", idx, st.blocks, st.capacity)
	}
	return be.Put(ctx, manifestName, []byte(sb.String()))
}

func volName(idx uint32) string {
	return "arch-" + strconv.FormatUint(uint64(idx), 10) + ".vol"
}

// backupDevice archives dev's blocks [have, written) into the backend and
// returns the updated extent. Invalidated blocks are stored as all-ones (a
// write-once medium expresses invalidation by burning every remaining bit).
func backupDevice(ctx context.Context, be Backend, dev wodev.Device, idx uint32, have, written int) (int, error) {
	bs := dev.BlockSize()
	buf := make([]byte, bs)
	ones := make([]byte, bs)
	for i := range ones {
		ones[i] = 0xFF
	}
	name := volName(idx)
	for b := have; b < written; b++ {
		rerr := dev.ReadBlock(b, buf)
		src := buf
		switch {
		case rerr == nil:
		case errors.Is(rerr, wodev.ErrInvalidated):
			src = ones
		default:
			return b - have, fmt.Errorf("archive: volume %d block %d: %w", idx, b, rerr)
		}
		if err := be.WriteAt(ctx, name, int64(b)*int64(bs), src); err != nil {
			return b - have, err
		}
	}
	return written - have, nil
}

// Backup copies every block not yet archived from the mounted volumes into
// the backend. Devices may be any subset of the sequence; volumes already
// fully archived cost one manifest lookup and no device reads.
func Backup(ctx context.Context, devs []wodev.Device, be Backend) (*Result, error) {
	man, err := loadManifest(ctx, be)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, dev := range devs {
		hdr, err := volume.ReadHeader(dev)
		if err != nil {
			return nil, err
		}
		res.VolumesSeen++
		written, err := wodev.FindEnd(dev)
		if err != nil {
			return nil, err
		}
		have := man[hdr.Index].blocks
		res.BlocksSkipped += have
		if written <= have {
			continue
		}
		n, err := backupDevice(ctx, be, dev, hdr.Index, have, written)
		if err != nil {
			return nil, err
		}
		res.BlocksCopied += n
		man[hdr.Index] = volState{blocks: written, capacity: dev.Capacity()}
	}
	if err := man.save(ctx, be); err != nil {
		return nil, err
	}
	return res, nil
}

// BackupVolume archives one whole volume into the backend — the demotion
// path. It is idempotent: blocks already captured per the manifest are not
// re-read, so a crash between archiving and committing the demotion simply
// redoes the remainder. Returns the blocks copied this call.
func BackupVolume(ctx context.Context, be Backend, dev wodev.Device) (int, error) {
	hdr, err := volume.ReadHeader(dev)
	if err != nil {
		return 0, err
	}
	written, err := wodev.FindEnd(dev)
	if err != nil {
		return 0, err
	}
	man, err := loadManifest(ctx, be)
	if err != nil {
		return 0, err
	}
	have := man[hdr.Index].blocks
	if written <= have {
		return 0, nil
	}
	n, err := backupDevice(ctx, be, dev, hdr.Index, have, written)
	if err != nil {
		return n, err
	}
	man[hdr.Index] = volState{blocks: written, capacity: dev.Capacity()}
	if err := man.save(ctx, be); err != nil {
		return n, err
	}
	return n, nil
}

// HasVolume reports whether the backend's manifest covers at least blocks
// device blocks of volume idx — the demotion sweep's check that an image is
// safely archived before the local copy is released.
func HasVolume(ctx context.Context, be Backend, idx uint32, blocks int) (bool, error) {
	man, err := loadManifest(ctx, be)
	if err != nil {
		return false, err
	}
	return man[idx].blocks >= blocks, nil
}

// ReadVolumeBlock reads one device block of an archived volume image into
// dst — the cold read-through primitive. A block stored as all-ones reports
// wodev.ErrInvalidated, matching what the original device would say.
func ReadVolumeBlock(ctx context.Context, be Backend, idx uint32, devBlock int, dst []byte) error {
	n, err := be.ReadAt(ctx, volName(idx), int64(devBlock)*int64(len(dst)), dst)
	if err != nil {
		return err
	}
	if n < len(dst) {
		return fmt.Errorf("archive: volume %d block %d: short image (%d of %d bytes)",
			idx, devBlock, n, len(dst))
	}
	if allOnes(dst) {
		return fmt.Errorf("archive: volume %d block %d: %w", idx, devBlock, wodev.ErrInvalidated)
	}
	return nil
}

// Adopt copies volumes archived in src but missing (or shorter) in dst,
// merging the manifests — how clio backup carries a store's cold tier into
// the backup archive. Returns the volumes and blocks adopted.
func Adopt(ctx context.Context, dst, src Backend) (int, int, error) {
	sman, err := loadManifest(ctx, src)
	if err != nil {
		return 0, 0, err
	}
	if len(sman) == 0 {
		return 0, 0, nil
	}
	dman, err := loadManifest(ctx, dst)
	if err != nil {
		return 0, 0, err
	}
	vols, blocks := 0, 0
	idxs := make([]int, 0, len(sman))
	for idx := range sman {
		idxs = append(idxs, int(idx))
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		idx := uint32(i)
		st := sman[idx]
		have := dman[idx]
		if have.blocks >= st.blocks {
			continue
		}
		size, err := src.Size(ctx, volName(idx))
		if err != nil {
			return vols, blocks, err
		}
		bs := int(size) / st.blocks
		buf := make([]byte, bs)
		for b := have.blocks; b < st.blocks; b++ {
			if _, err := src.ReadAt(ctx, volName(idx), int64(b)*int64(bs), buf); err != nil {
				return vols, blocks, err
			}
			if err := dst.WriteAt(ctx, volName(idx), int64(b)*int64(bs), buf); err != nil {
				return vols, blocks, err
			}
			blocks++
		}
		dman[idx] = st
		vols++
	}
	if err := dman.save(ctx, dst); err != nil {
		return vols, blocks, err
	}
	return vols, blocks, nil
}

// Restore materializes in-memory write-once devices from the archive, in
// volume-index order, ready to pass to core.Open or scrub.Volumes. Each
// device is restored with its original capacity — the successor volumes'
// global offsets depend on it.
func Restore(ctx context.Context, be Backend) ([]wodev.Device, error) {
	man, err := loadManifest(ctx, be)
	if err != nil {
		return nil, err
	}
	if len(man) == 0 {
		return nil, ErrNotArchive
	}
	idxs := make([]int, 0, len(man))
	for idx := range man {
		idxs = append(idxs, int(idx))
	}
	sort.Ints(idxs)
	var out []wodev.Device
	for _, idx := range idxs {
		st := man[uint32(idx)]
		if st.blocks == 0 {
			continue
		}
		size, err := be.Size(ctx, volName(uint32(idx)))
		if err != nil {
			return nil, err
		}
		data := make([]byte, size)
		if _, err := be.ReadAt(ctx, volName(uint32(idx)), 0, data); err != nil {
			return nil, err
		}
		blocks := st.blocks
		blockSize := len(data) / blocks
		if blockSize == 0 || len(data)%blocks != 0 {
			return nil, fmt.Errorf("archive: volume %d image inconsistent (%d bytes, %d blocks)", idx, len(data), blocks)
		}
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: st.capacity})
		for b := 0; b < blocks; b++ {
			img := data[b*blockSize : (b+1)*blockSize]
			if allOnes(img) {
				if err := dev.Invalidate(b); err != nil {
					return nil, err
				}
				continue
			}
			if _, err := dev.AppendBlock(img); err != nil {
				return nil, fmt.Errorf("archive: restore volume %d block %d: %w", idx, b, err)
			}
		}
		out = append(out, dev)
	}
	return out, nil
}

func allOnes(b []byte) bool {
	for _, c := range b {
		if c != 0xFF {
			return false
		}
	}
	return true
}
