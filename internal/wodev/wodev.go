// Package wodev implements the write-once log device substrate the Clio log
// service is built on (paper §2: "a non-volatile, block-oriented storage
// device that supports random access for reading, and append-only write
// access").
//
// The paper's log device was a 12" write-once optical disk (with magnetic
// disk simulating it in the measured configuration). This package provides
// the same contract in simulation:
//
//   - blocks are written strictly sequentially and exactly once; any attempt
//     to rewrite a block fails at the device level, mirroring the paper's
//     preference for devices "physically incapable of writing anywhere except
//     at the end of the written portion of the volume";
//   - random-access reads of any written block;
//   - a block may be *invalidated* — overwritten with all one bits — which is
//     the single sanctioned exception, used to fence off corrupted blocks
//     (§2.3.2);
//   - optionally, the device does not report where the written portion ends,
//     forcing recovery code to binary-search for the end (§2.3.1).
//
// Implementations: MemDevice (in-memory), FileDevice (file-backed, one file
// per volume). Inject is the one wrapper: a fault decorator that fires a
// named faults.Registry point before each operation — transient errors,
// crashes and real latency are all armed there. Permanent media damage is
// MemDevice.Damage. Inject does not measure: the device counts its own
// operations (Stats), the service counts the paper's cost units for the
// reads it issues, and latency is observed by the service's histograms and
// trace spans.
//
// A device cannot tell a damaged written block from an intact one (ReadBlock
// returns the garbage with a nil error); the readers above it validate the
// image themselves and report a rejected one as ErrCorrupt.
package wodev

import (
	"errors"
	"fmt"
	"sync"

	"clio/internal/faults"
)

// Device errors.
var (
	// ErrUnwritten is returned when reading a block that has not been written.
	ErrUnwritten = errors.New("wodev: block not yet written")
	// ErrRewrite is returned on any attempt to write a block twice.
	ErrRewrite = errors.New("wodev: block already written (write-once violation)")
	// ErrFull is returned when appending to a device whose capacity is exhausted.
	ErrFull = errors.New("wodev: device full")
	// ErrBadBlockSize is returned when a write's length differs from the block size.
	ErrBadBlockSize = errors.New("wodev: data length != device block size")
	// ErrInvalidated is returned when reading a block that has been invalidated.
	ErrInvalidated = errors.New("wodev: block invalidated")
	// ErrOutOfRange is returned for block indices beyond device capacity.
	ErrOutOfRange = errors.New("wodev: block index out of range")
	// ErrCorrupt is returned when appending onto a damaged unwritten block,
	// and by the block readers above the device for an image that fails
	// validation.
	ErrCorrupt = errors.New("wodev: block damaged, cannot be written")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("wodev: device closed")
	// ErrTransient is the per-operation soft failure tests arm on an
	// Inject point — the operation did not happen, and a retry may
	// succeed. It classifies as faults.Transient, unlike the permanent
	// media errors above.
	ErrTransient = faults.New(faults.Transient, "wodev: transient device error")
)

// EndUnknown is returned by Device.Written when the device cannot report the
// end of its written portion; callers must probe with ReadBlock (the paper's
// binary search, §2.3.1).
const EndUnknown = -1

// Stats counts device operations. Counters are cumulative and monotone. The
// tags are the fields' /metrics series (obs.RegisterStruct), which the
// service reports summed over its mounted volumes.
type Stats struct {
	Reads         int64 `metric:"clio_wodev_reads_total" help:"Device blocks read, summed over mounted volumes."`
	Appends       int64 `metric:"clio_wodev_appends_total" help:"Device blocks appended, summed over mounted volumes."`
	Invalidations int64 `metric:"clio_wodev_invalidations_total" help:"Device blocks invalidated, summed over mounted volumes."`
	Seeks         int64 `metric:"clio_wodev_seeks_total" help:"Non-sequential device reads (seeks), summed over mounted volumes."`
	Probes        int64 `metric:"clio_wodev_probes_total" help:"Reads of unwritten blocks (end-finding probes), summed over mounted volumes."`
}

// Device is a write-once block device.
//
// Implementations must be safe for concurrent use.
type Device interface {
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// Capacity returns the total number of blocks on the volume.
	Capacity() int
	// Written returns the number of blocks written so far (the next append
	// index), or EndUnknown if the device cannot report it.
	Written() int
	// ReadBlock reads block idx into dst, which must be at least BlockSize
	// bytes. It returns ErrUnwritten for unwritten blocks, ErrInvalidated for
	// invalidated blocks (dst is filled with 0xFF in that case), and garbage
	// data with a nil error for blocks damaged after being written.
	ReadBlock(idx int, dst []byte) error
	// AppendBlock writes data as the next sequential block and returns its
	// index. len(data) must equal BlockSize. The device keeps no reference
	// to data: a replication follower appends straight from a frame buffer
	// it reuses.
	AppendBlock(data []byte) (int, error)
	// WriteAt writes data at exactly the given index, which must equal the
	// current end of the written portion. This is AppendBlock with an
	// explicit position check, used when the caller tracks the end itself.
	WriteAt(idx int, data []byte) error
	// Invalidate overwrites block idx with all one bits: a written block, or
	// the unwritten one at the write point, which that consumes (§2.3.2).
	Invalidate(idx int) error
	// Stats returns a snapshot of the operation counters.
	Stats() Stats
	// ResetStats zeroes the operation counters.
	ResetStats()
	// Close releases resources. Further operations return ErrClosed.
	Close() error
}

type blockState uint8

const (
	stateUnwritten blockState = iota
	stateWritten
	stateInvalid
	stateDamagedUnwritten // unwritten block scribbled by a fault: unwritable
	stateDamagedWritten   // written block scribbled by a fault: reads garbage
)

// writeOnce is the half of a device that does not depend on its medium:
// geometry, the write point, the counters, and the write-once policy — what
// each call is refused for, and in which order — stated once. MemDevice and
// FileDevice embed it and supply the medium; the admit methods want mu held.
type writeOnce struct {
	mu        sync.Mutex
	blockSize int
	capacity  int
	written   int // the write point: every block below it is written or invalidated
	closed    bool
	stats     Stats
	lastRead  int
}

var errAllOnes = errors.New("wodev: all-ones block payload is reserved for invalidation")

// BlockSize implements Device.
func (w *writeOnce) BlockSize() int { return w.blockSize }

// Capacity implements Device.
func (w *writeOnce) Capacity() int { return w.capacity }

// Written implements Device.
func (w *writeOnce) Written() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Stats implements Device.
func (w *writeOnce) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// ResetStats implements Device.
func (w *writeOnce) ResetStats() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats = Stats{}
	w.lastRead = -2
}

// admit is what every call on a block needs: an open device, an index on it.
func (w *writeOnce) admit(idx int) error {
	if w.closed {
		return ErrClosed
	}
	if idx < 0 || idx >= w.capacity {
		return ErrOutOfRange
	}
	return nil
}

// admitRead admits and counts a read; nil means the medium holds the block.
func (w *writeOnce) admitRead(idx int, dst []byte) error {
	if err := w.admit(idx); err != nil {
		return err
	}
	if len(dst) < w.blockSize {
		return fmt.Errorf("wodev: read buffer %d < block size %d", len(dst), w.blockSize)
	}
	w.stats.Reads++
	if idx != w.lastRead+1 {
		w.stats.Seeks++
	}
	w.lastRead = idx
	if idx >= w.written {
		w.stats.Probes++
		return ErrUnwritten
	}
	return nil
}

// admitAppend admits data as the next block and returns the write point it
// goes to; appended moves the write point past it once the medium took it.
// All ones is refused: on the medium that pattern means "invalidated".
func (w *writeOnce) admitAppend(data []byte) (int, error) {
	switch {
	case w.closed:
		return 0, ErrClosed
	case len(data) != w.blockSize:
		return 0, ErrBadBlockSize
	case w.written >= w.capacity:
		return 0, ErrFull
	case allOnes(data):
		return 0, errAllOnes
	}
	return w.written, nil
}

func (w *writeOnce) appended() {
	w.written++
	w.stats.Appends++
}

// admitWriteAt admits a write aimed at idx: only the write point will do.
func (w *writeOnce) admitWriteAt(idx int) error {
	if err := w.admit(idx); err != nil {
		return err
	}
	if idx < w.written {
		return ErrRewrite
	}
	if idx != w.written {
		return fmt.Errorf("wodev: write at %d but end of written portion is %d: %w", idx, w.written, ErrRewrite)
	}
	return nil
}

// admitInvalidate admits the invalidation of a written block or of the block
// at the write point, which invalidated then consumes (§2.3.2: the damaged
// block a write just failed on). Beyond the write point there is nothing to
// fence off, and a hole there would read as written after a restart.
func (w *writeOnce) admitInvalidate(idx int) error {
	if err := w.admit(idx); err != nil {
		return err
	}
	if idx > w.written {
		return fmt.Errorf("wodev: invalidate block %d beyond the write point %d: %w", idx, w.written, ErrOutOfRange)
	}
	return nil
}

func (w *writeOnce) invalidated(idx int) {
	if idx == w.written {
		w.written++
	}
	w.stats.Invalidations++
}

func allOnes(b []byte) bool {
	for _, c := range b {
		if c != 0xFF {
			return false
		}
	}
	return true
}

// MemDevice is an in-memory write-once device.
type MemDevice struct {
	writeOnce
	reportEnd bool
	state     []blockState
	data      map[int][]byte
}

// MemOptions configures a MemDevice.
type MemOptions struct {
	// BlockSize in bytes; defaults to 1024 (the paper's measured block size).
	BlockSize int
	// Capacity in blocks; defaults to 1<<20.
	Capacity int
	// ReportEndUnknown makes Written return EndUnknown, forcing recovery to
	// binary-search for the end of the written portion.
	ReportEndUnknown bool
}

// DefaultBlockSize is the paper's measured configuration (1 kbyte blocks).
const DefaultBlockSize = 1024

// NewMem returns a new in-memory write-once device.
func NewMem(opt MemOptions) *MemDevice {
	if opt.BlockSize <= 0 {
		opt.BlockSize = DefaultBlockSize
	}
	if opt.Capacity <= 0 {
		opt.Capacity = 1 << 20
	}
	return &MemDevice{
		writeOnce: writeOnce{blockSize: opt.BlockSize, capacity: opt.Capacity, lastRead: -2},
		reportEnd: !opt.ReportEndUnknown,
		state:     make([]blockState, opt.Capacity),
		data:      make(map[int][]byte),
	}
}

// Written implements Device.
func (d *MemDevice) Written() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.reportEnd {
		return EndUnknown
	}
	return d.written
}

// ReadBlock implements Device.
func (d *MemDevice) ReadBlock(idx int, dst []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitRead(idx, dst); err != nil {
		return err
	}
	if d.state[idx] == stateInvalid {
		for i := 0; i < d.blockSize; i++ {
			dst[i] = 0xFF
		}
		return ErrInvalidated
	}
	copy(dst, d.data[idx])
	return nil
}

// AppendBlock implements Device.
func (d *MemDevice) AppendBlock(data []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(data)
}

func (d *MemDevice) appendLocked(data []byte) (int, error) {
	idx, err := d.admitAppend(data)
	if err != nil {
		return 0, err
	}
	if d.state[idx] == stateDamagedUnwritten {
		return idx, ErrCorrupt
	}
	cp := make([]byte, d.blockSize)
	copy(cp, data)
	d.data[idx] = cp
	d.state[idx] = stateWritten
	d.appended()
	return idx, nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(idx int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitWriteAt(idx); err != nil {
		return err
	}
	_, err := d.appendLocked(data)
	return err
}

// Invalidate implements Device.
func (d *MemDevice) Invalidate(idx int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admitInvalidate(idx); err != nil {
		return err
	}
	d.state[idx] = stateInvalid
	delete(d.data, idx)
	d.invalidated(idx)
	return nil
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Damage simulates a hardware/software fault scribbling garbage over block
// idx, bypassing the write-once guard (this models the failures of §2.3.2,
// not a legal device operation). A written block keeps stateDamagedWritten
// and subsequently reads back garbage with a nil error; an unwritten block
// becomes unwritable and AppendBlock over it returns ErrCorrupt.
func (d *MemDevice) Damage(idx int, garbage []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if idx < 0 || idx >= d.capacity {
		return ErrOutOfRange
	}
	switch d.state[idx] {
	case stateWritten, stateDamagedWritten:
		g := make([]byte, d.blockSize)
		copy(g, garbage)
		d.data[idx] = g
		d.state[idx] = stateDamagedWritten
	case stateInvalid:
		// Invalidated blocks are all 1s and stay that way.
	default:
		d.state[idx] = stateDamagedUnwritten
	}
	return nil
}

// SetReportEnd toggles whether Written reports the true end (used by recovery
// tests to exercise the binary-search path on an already-written device).
func (d *MemDevice) SetReportEnd(ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reportEnd = ok
}

// FindEnd locates the end of the written portion of dev by binary search over
// probing reads, as §2.3.1 prescribes when the device cannot be queried
// directly. It returns the number of written-or-invalidated blocks from the
// start of the volume. The written portion of a write-once volume is a
// prefix, so probing is sound. The scratch buffer is reused across probes.
func FindEnd(dev Device) (int, error) {
	if n := dev.Written(); n != EndUnknown {
		return n, nil
	}
	buf := make([]byte, dev.BlockSize())
	probe := func(i int) (written bool, err error) {
		err = dev.ReadBlock(i, buf)
		switch {
		case err == nil, errors.Is(err, ErrInvalidated):
			return true, nil
		case errors.Is(err, ErrUnwritten):
			return false, nil
		default:
			return false, err
		}
	}
	lo, hi := 0, dev.Capacity() // end is in (lo-1, hi]; invariant: blocks < lo written
	// First check the empty-volume case cheaply.
	if ok, err := probe(0); err != nil {
		return 0, err
	} else if !ok {
		return 0, nil
	}
	lo = 1
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}
