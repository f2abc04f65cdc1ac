package wodev

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// FileDevice is a write-once device backed by a regular file, one file per
// log volume. The written portion of the volume is the whole blocks of the
// file's current extent, so Written can be answered by "directly querying
// the device" (§2.3.1); invalidated blocks are represented as all one bits,
// the same encoding the paper uses on the physical medium.
//
// The file itself is of course rewriteable; the append-only policy is
// enforced by this type, matching the paper's observation that "the
// append-only storage model is appropriate even if the backing storage
// medium happens to be rewriteable".
type FileDevice struct {
	writeOnce
	f         *os.File
	syncEvery bool
}

// FileOptions configures OpenFile.
type FileOptions struct {
	// BlockSize in bytes; defaults to 1024. Must match when reopening.
	BlockSize int
	// Capacity in blocks; defaults to 1<<20.
	Capacity int
	// SyncEvery makes every append fsync, modelling non-volatile commitment
	// of each block. Off by default (the paper's device writes were
	// asynchronous with respect to the client).
	SyncEvery bool
}

// OpenFile opens (creating if necessary) a file-backed write-once volume.
// Reopening an existing volume file resumes with the written portion equal
// to the whole blocks of the file extent; a trailing partial block (torn
// write) was never written — the correct crash semantics for a device that
// commits whole blocks — and the next append overwrites it. Nothing is cut
// off the file: opened by mistake at another block size than it was written
// with, a volume fails to mount but keeps every byte.
func OpenFile(path string, opt FileOptions) (*FileDevice, error) {
	if opt.BlockSize <= 0 {
		opt.BlockSize = DefaultBlockSize
	}
	if opt.Capacity <= 0 {
		opt.Capacity = 1 << 20
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wodev: open volume file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wodev: stat volume file: %w", err)
	}
	whole := st.Size() / int64(opt.BlockSize)
	if whole > int64(opt.Capacity) {
		f.Close()
		return nil, fmt.Errorf("wodev: volume file holds %d blocks, capacity is %d", whole, opt.Capacity)
	}
	return &FileDevice{
		writeOnce: writeOnce{blockSize: opt.BlockSize, capacity: opt.Capacity, written: int(whole), lastRead: -2},
		f:         f,
		syncEvery: opt.SyncEvery,
	}, nil
}

// ReadBlock implements Device.
func (d *FileDevice) ReadBlock(idx int, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitRead(idx, dst); err != nil {
		return err
	}
	if _, err := d.f.ReadAt(dst[:d.blockSize], int64(idx)*int64(d.blockSize)); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return ErrUnwritten
		}
		return fmt.Errorf("wodev: read block %d: %w", idx, err)
	}
	if allOnes(dst[:d.blockSize]) {
		return ErrInvalidated
	}
	return nil
}

// AppendBlock implements Device.
func (d *FileDevice) AppendBlock(data []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(data)
}

func (d *FileDevice) appendLocked(data []byte) (int, error) {
	idx, err := d.admitAppend(data)
	if err != nil {
		return 0, err
	}
	if _, err := d.f.WriteAt(data, int64(idx)*int64(d.blockSize)); err != nil {
		return 0, fmt.Errorf("wodev: append block %d: %w", idx, err)
	}
	if d.syncEvery {
		if err := d.f.Sync(); err != nil {
			return 0, fmt.Errorf("wodev: sync: %w", err)
		}
	}
	d.appended()
	return idx, nil
}

// WriteAt implements Device. The position check and the append are one
// critical section: of concurrent writers aimed at the same index exactly one
// lands there, the rest are refused.
func (d *FileDevice) WriteAt(idx int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitWriteAt(idx); err != nil {
		return err
	}
	_, err := d.appendLocked(data)
	return err
}

// Invalidate implements Device.
func (d *FileDevice) Invalidate(idx int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitInvalidate(idx); err != nil {
		return err
	}
	ones := make([]byte, d.blockSize)
	for i := range ones {
		ones[i] = 0xFF
	}
	if _, err := d.f.WriteAt(ones, int64(idx)*int64(d.blockSize)); err != nil {
		return fmt.Errorf("wodev: invalidate block %d: %w", idx, err)
	}
	d.invalidated(idx)
	return nil
}

// Close implements Device.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}
