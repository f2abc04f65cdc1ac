// Package rewritefs is a deliberately conventional indirect-block file
// system over rewriteable storage — the §1 strawman Clio's log files are
// measured against. It exists so the motivation claims can be quantified:
//
//   - "In indirect block file systems (such as Unix), blocks at the tail
//     end of [large, continually growing] files become increasingly
//     expensive to read and write" — tail appends and reads traverse the
//     inode plus one or two indirect blocks, each a separate device access;
//   - "the blocks of such files are likely to be scattered over the disk" —
//     the allocator interleaves concurrent files, so logical adjacency is
//     not physical adjacency and sequential reads seek;
//   - "most file system backup procedures involve copying whole files,
//     which is particularly inefficient ... for large log files, since only
//     the tail end of the file will have changed since the last backup" —
//     BackupReads counts it.
//
// The implementation is honest about I/O: every inode, indirect-block and
// data-block access goes through the Store, which counts reads, writes and
// seeks; there is deliberately no buffer cache (the experiments measure the
// cold cost the paper's analysis talks about).
package rewritefs

import (
	"errors"
	"fmt"
)

// Errors.
var (
	// ErrNoSpace indicates the device is full.
	ErrNoSpace = errors.New("rewritefs: no space")
	// ErrNotFound indicates an unknown file.
	ErrNotFound = errors.New("rewritefs: file not found")
	// ErrRange indicates a read beyond the end of a file.
	ErrRange = errors.New("rewritefs: offset beyond end of file")
)

// Stats counts device traffic.
type Stats struct {
	Reads  int64
	Writes int64
	Seeks  int64 // accesses not physically adjacent to the previous one
}

// Store is a rewriteable block device with access accounting.
type Store struct {
	blockSize int
	capacity  int
	blocks    map[int][]byte
	next      int // bump allocator
	last      int // last accessed block for seek counting
	stats     Stats
}

// NewStore returns a rewriteable store.
func NewStore(blockSize, capacity int) *Store {
	return &Store{blockSize: blockSize, capacity: capacity,
		blocks: make(map[int][]byte), last: -2}
}

// Stats returns the counters.
func (st *Store) Stats() Stats { return st.stats }

// ResetStats zeroes the counters.
func (st *Store) ResetStats() { st.stats = Stats{}; st.last = -2 }

func (st *Store) touch(i int) {
	if i != st.last+1 {
		st.stats.Seeks++
	}
	st.last = i
}

func (st *Store) read(i int) []byte {
	st.stats.Reads++
	st.touch(i)
	b := st.blocks[i]
	if b == nil {
		b = make([]byte, st.blockSize)
	}
	return b
}

func (st *Store) write(i int, b []byte) {
	st.stats.Writes++
	st.touch(i)
	cp := make([]byte, st.blockSize)
	copy(cp, b)
	st.blocks[i] = cp
}

// alloc grabs a fresh block.
func (st *Store) alloc() (int, error) {
	if st.next >= st.capacity {
		return 0, ErrNoSpace
	}
	i := st.next
	st.next++
	return i, nil
}

// Geometry constants: a Unix-ish inode with a few direct blocks plus single
// and double indirection. Pointers are 4 bytes.
const NumDirect = 8

// FS is the file system.
type FS struct {
	store *Store
	files map[string]*inode
	ptrs  int // pointers per indirect block
}

type inode struct {
	size     int
	direct   [NumDirect]int
	indirect int // block of pointers; 0 = none (block 0 never allocated to data)
	double   int // block of pointers to indirect blocks
	// inodeBlock is where this inode "lives"; accessing the file always
	// reads it, updating metadata always writes it.
	inodeBlock int
}

// New returns a file system on the given store.
func New(store *Store) *FS {
	return &FS{
		store: store,
		files: make(map[string]*inode),
		ptrs:  store.blockSize / 4,
	}
}

// Create makes an empty file.
func (fs *FS) Create(name string) error {
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("rewritefs: %q exists", name)
	}
	ib, err := fs.store.alloc()
	if err != nil {
		return err
	}
	ino := &inode{inodeBlock: ib}
	fs.files[name] = ino
	fs.store.write(ib, nil) // persist the inode
	return nil
}

// Size returns a file's size.
func (fs *FS) Size(name string) (int, error) {
	ino, ok := fs.files[name]
	if !ok {
		return 0, ErrNotFound
	}
	return ino.size, nil
}

// blockFor maps a file block index to its device block, reading the
// indirection chain (charging those reads). When allocate is set, missing
// mapping levels are allocated and written back.
func (fs *FS) blockFor(ino *inode, fileBlock int, allocate bool) (int, error) {
	st := fs.store
	// The inode itself is always consulted.
	st.read(ino.inodeBlock)
	switch {
	case fileBlock < NumDirect:
		if ino.direct[fileBlock] == 0 {
			if !allocate {
				return 0, ErrRange
			}
			b, err := st.alloc()
			if err != nil {
				return 0, err
			}
			ino.direct[fileBlock] = b
			st.write(ino.inodeBlock, nil) // inode update
		}
		return ino.direct[fileBlock], nil

	case fileBlock < NumDirect+fs.ptrs:
		if ino.indirect == 0 {
			if !allocate {
				return 0, ErrRange
			}
			b, err := st.alloc()
			if err != nil {
				return 0, err
			}
			ino.indirect = b
			st.write(ino.inodeBlock, nil)
			st.write(b, nil) // zeroed pointer block
		}
		idx := fileBlock - NumDirect
		ptrs := st.read(ino.indirect)
		got := readPtr(ptrs, idx)
		if got == 0 {
			if !allocate {
				return 0, ErrRange
			}
			b, err := st.alloc()
			if err != nil {
				return 0, err
			}
			writePtr(ptrs, idx, b)
			st.write(ino.indirect, ptrs)
			got = b
		}
		return got, nil

	default:
		rel := fileBlock - NumDirect - fs.ptrs
		if rel >= fs.ptrs*fs.ptrs {
			return 0, fmt.Errorf("rewritefs: file block %d exceeds maximum", fileBlock)
		}
		if ino.double == 0 {
			if !allocate {
				return 0, ErrRange
			}
			b, err := st.alloc()
			if err != nil {
				return 0, err
			}
			ino.double = b
			st.write(ino.inodeBlock, nil)
			st.write(b, nil)
		}
		outer := rel / fs.ptrs
		inner := rel % fs.ptrs
		dptrs := st.read(ino.double)
		mid := readPtr(dptrs, outer)
		if mid == 0 {
			if !allocate {
				return 0, ErrRange
			}
			b, err := st.alloc()
			if err != nil {
				return 0, err
			}
			writePtr(dptrs, outer, b)
			st.write(ino.double, dptrs)
			st.write(b, nil)
			mid = b
		}
		mptrs := st.read(mid)
		got := readPtr(mptrs, inner)
		if got == 0 {
			if !allocate {
				return 0, ErrRange
			}
			b, err := st.alloc()
			if err != nil {
				return 0, err
			}
			writePtr(mptrs, inner, b)
			st.write(mid, mptrs)
			got = b
		}
		return got, nil
	}
}

func readPtr(b []byte, i int) int {
	off := i * 4
	return int(b[off]) | int(b[off+1])<<8 | int(b[off+2])<<16 | int(b[off+3])<<24
}

func writePtr(b []byte, i, v int) {
	off := i * 4
	b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// Append writes data at the end of the file. Partial blocks are
// read-modify-write, as a real FS would.
func (fs *FS) Append(name string, data []byte) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	st := fs.store
	bs := st.blockSize
	for len(data) > 0 {
		fileBlock := ino.size / bs
		off := ino.size % bs
		devBlock, err := fs.blockFor(ino, fileBlock, true)
		if err != nil {
			return err
		}
		var blk []byte
		if off != 0 {
			blk = st.read(devBlock) // read-modify-write of the partial block
		} else {
			blk = make([]byte, bs)
		}
		n := copy(blk[off:], data)
		st.write(devBlock, blk)
		ino.size += n
		data = data[n:]
	}
	// Size update persists in the inode.
	st.write(ino.inodeBlock, nil)
	return nil
}

// Rewrite replaces the file's entire contents in place — the conventional
// FS's whole-file update, used by the §6 atomic-update comparison. Blocks
// already mapped are overwritten; growth allocates as Append does.
func (fs *FS) Rewrite(name string, data []byte) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	st := fs.store
	bs := st.blockSize
	for off := 0; off < len(data); off += bs {
		devBlock, err := fs.blockFor(ino, off/bs, true)
		if err != nil {
			return err
		}
		blk := make([]byte, bs)
		copy(blk, data[off:])
		st.write(devBlock, blk)
	}
	ino.size = len(data)
	st.write(ino.inodeBlock, nil)
	return nil
}

// ReadAt reads len(p) bytes at the given offset.
func (fs *FS) ReadAt(name string, offset int, p []byte) error {
	ino, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	if offset+len(p) > ino.size {
		return ErrRange
	}
	st := fs.store
	bs := st.blockSize
	for len(p) > 0 {
		fileBlock := offset / bs
		off := offset % bs
		devBlock, err := fs.blockFor(ino, fileBlock, false)
		if err != nil {
			return err
		}
		blk := st.read(devBlock)
		n := copy(p, blk[off:])
		p = p[n:]
		offset += n
	}
	return nil
}

// BackupReads counts the block reads a whole-file backup costs (§1: backup
// copies whole files), including the metadata traversal.
func (fs *FS) BackupReads(name string) (int64, error) {
	ino, ok := fs.files[name]
	if !ok {
		return 0, ErrNotFound
	}
	before := fs.store.stats.Reads
	bs := fs.store.blockSize
	buf := make([]byte, bs)
	for off := 0; off < ino.size; off += bs {
		n := bs
		if off+n > ino.size {
			n = ino.size - off
		}
		if err := fs.ReadAt(name, off, buf[:n]); err != nil {
			return 0, err
		}
	}
	return fs.store.stats.Reads - before, nil
}
