// Package volume implements log volumes and volume sequences (§2.1).
//
// A log volume is one removable write-once medium. Block 0 of every volume
// is a self-describing volume header; the remaining blocks hold log data.
// Volumes are chained into a *volume sequence*: whenever a volume fills up,
// a previously unused successor volume is loaded and is logically a
// continuation of its predecessor. A log file is totally contained in one
// volume sequence and may span many volumes.
//
// The rest of the system addresses *global data-block indices*: block g of
// the sequence lives on the volume whose [StartOffset, StartOffset+capacity)
// range contains g, at device block (g - StartOffset) + 1. Older volumes may
// be offline; reads of their blocks fail with ErrOffline until the volume is
// mounted again ("many of the previous volumes in a volume sequence may also
// be available for reading (only), or may be made available on demand").
package volume

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"clio/internal/blockfmt"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// Errors.
var (
	// ErrNoHeader indicates block 0 is missing or not a volume header.
	ErrNoHeader = errors.New("volume: missing or invalid volume header")
	// ErrSequenceMismatch indicates a volume from a different sequence.
	ErrSequenceMismatch = errors.New("volume: volume belongs to a different sequence")
	// ErrNotContiguous indicates a volume whose index or offset does not
	// continue the sequence (Set.Add).
	ErrNotContiguous = errors.New("volume: volume does not continue the sequence")
	// ErrOffline indicates the addressed block lives on an unmounted volume.
	ErrOffline = errors.New("volume: block is on an offline volume")
	// ErrOutOfRange indicates a global block index past the written portion.
	ErrOutOfRange = errors.New("volume: global block index out of range")
)

// headerMagic identifies a Clio volume header record.
var headerMagic = []byte("CLIOVOL1")

// SeqID identifies a volume sequence.
type SeqID [16]byte

// Header is the self-describing first block of a volume.
type Header struct {
	// Seq identifies the volume sequence this volume belongs to.
	Seq SeqID
	// Index is the volume's 0-based position in the sequence.
	Index uint32
	// StartOffset is the global data-block index of this volume's first
	// data block (the cumulative data capacity of its predecessors).
	StartOffset uint64
	// BlockSize is the device block size; all volumes of a sequence agree.
	BlockSize uint32
	// N is the entrymap tree degree used throughout the sequence.
	N uint16
	// Created is the header's write time (Unix nanoseconds).
	Created int64
}

// encode returns the header record's payload.
func (h *Header) encode() []byte {
	out := append([]byte(nil), headerMagic...)
	out = append(out, h.Seq[:]...)
	out = wire.PutUint32(out, h.Index)
	out = wire.PutUint64(out, h.StartOffset)
	out = wire.PutUint32(out, h.BlockSize)
	out = wire.PutUint16(out, uint16(h.N))
	out = wire.PutUint64(out, uint64(h.Created))
	return out
}

func decodeHeader(data []byte) (*Header, error) {
	if len(data) < len(headerMagic)+16+4+8+4+2+8 {
		return nil, ErrNoHeader
	}
	if !bytes.Equal(data[:len(headerMagic)], headerMagic) {
		return nil, ErrNoHeader
	}
	rest := data[len(headerMagic):]
	h := &Header{}
	copy(h.Seq[:], rest[:16])
	rest = rest[16:]
	idx, _ := wire.Uint32(rest)
	h.Index = idx
	rest = rest[4:]
	off, _ := wire.Uint64(rest)
	h.StartOffset = off
	rest = rest[8:]
	bs, _ := wire.Uint32(rest)
	h.BlockSize = bs
	rest = rest[4:]
	n, _ := wire.Uint16(rest)
	h.N = n
	rest = rest[2:]
	created, _ := wire.Uint64(rest)
	h.Created = int64(created)
	return h, nil
}

// Format writes the volume header as block 0 of a fresh device.
func Format(dev wodev.Device, h Header) error {
	if dev.Written() != 0 {
		return fmt.Errorf("volume: device already written (%d blocks)", dev.Written())
	}
	if int(h.BlockSize) != dev.BlockSize() {
		return fmt.Errorf("volume: header block size %d != device %d", h.BlockSize, dev.BlockSize())
	}
	b, err := blockfmt.NewBuilder(dev.BlockSize(), 0)
	if err != nil {
		return err
	}
	b.SetFlags(blockfmt.FlagVolumeHeader)
	rec := blockfmt.Record{
		LogID:     0, // volume sequence log
		Form:      blockfmt.FormFull,
		AttrFlags: blockfmt.AttrSystem,
		Timestamp: h.Created,
		Data:      h.encode(),
	}
	if err := b.Append(rec); err != nil {
		return fmt.Errorf("volume: header record: %w", err)
	}
	if _, err := dev.AppendBlock(b.Seal()); err != nil {
		return fmt.Errorf("volume: write header: %w", err)
	}
	return nil
}

// ReadHeader reads and validates the volume header of a device.
func ReadHeader(dev wodev.Device) (*Header, error) {
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoHeader, err)
	}
	p, err := blockfmt.Parse(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoHeader, err)
	}
	if p.Flags&blockfmt.FlagVolumeHeader == 0 || p.Len() == 0 {
		return nil, ErrNoHeader
	}
	var rec blockfmt.RecordView
	p.Record(0, &rec)
	h, err := decodeHeader(rec.Data)
	if err != nil {
		return nil, err
	}
	if int(h.BlockSize) != dev.BlockSize() {
		return nil, fmt.Errorf("%w: header says block size %d, device %d",
			ErrNoHeader, h.BlockSize, dev.BlockSize())
	}
	return h, nil
}

// Volume is a mounted volume: a device plus its parsed header.
type Volume struct {
	Dev wodev.Device
	Hdr Header
	// Tag is the small integer used as the cache's volume id.
	Tag int
}

// DataCapacity returns the number of data blocks the volume can hold.
func (v *Volume) DataCapacity() int { return v.Dev.Capacity() - 1 }

// DataWritten returns the number of data blocks written to the volume, using
// wodev.FindEnd when the device does not report its end (§2.3.1).
func (v *Volume) DataWritten() (int, error) {
	end, err := wodev.FindEnd(v.Dev)
	if err != nil {
		return 0, err
	}
	if end == 0 {
		return 0, nil
	}
	return end - 1, nil
}

// DeviceBlock maps a volume-local data-block index to a device block index.
func (v *Volume) DeviceBlock(local int) int { return local + 1 }

// Mount opens a device as a volume of an existing sequence.
func Mount(dev wodev.Device, tag int) (*Volume, error) {
	h, err := ReadHeader(dev)
	if err != nil {
		return nil, err
	}
	return &Volume{Dev: dev, Hdr: *h, Tag: tag}, nil
}

// Set is the mounted portion of a volume sequence, ordered by volume index.
// The newest volume is assumed online for reading and writing; earlier
// volumes may be missing (offline). A Set is safe for concurrent use: the
// sealed-block read path calls Locate without the service's writer lock, so
// mounts and extensions synchronize internally.
type Set struct {
	seq  SeqID
	mu   sync.RWMutex
	vols []*Volume // sorted by Hdr.Index; gaps allowed (offline volumes)
}

// NewSet returns a set for the given sequence id.
func NewSet(seq SeqID) *Set { return &Set{seq: seq} }

// MountSet mounts the written volumes among devs (one sequence, any order)
// into a Set, each tagged with its position in devs. A device nothing was
// written to — a follower's, ahead of its leader's stream — has no header
// and is skipped; the set is nil when every device is blank.
func MountSet(devs []wodev.Device) (*Set, error) {
	var set *Set
	for i, dev := range devs {
		if dev.Written() == 0 {
			continue
		}
		v, err := Mount(dev, i)
		if err != nil {
			return nil, err
		}
		if set == nil {
			set = NewSet(v.Hdr.Seq)
		}
		if err := set.Add(v); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// Seq returns the sequence id.
func (s *Set) Seq() SeqID { return s.seq }

// Add mounts a volume into the set. The sequence's block mapping is only
// sound when each volume starts where its predecessor's capacity ends, so a
// volume that breaks that against a mounted neighbour is ErrNotContiguous:
// next to the adjacent index the offsets must meet exactly, across a gap of
// offline volumes they must at least not overlap. A device opened at the
// wrong capacity therefore fails here, at mount, instead of mapping a
// shorter history.
func (s *Set) Add(v *Volume) error {
	if v.Hdr.Seq != s.seq {
		return ErrSequenceMismatch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.vols), func(i int) bool { return s.vols[i].Hdr.Index >= v.Hdr.Index })
	if i < len(s.vols) && s.vols[i].Hdr.Index == v.Hdr.Index {
		return fmt.Errorf("%w: volume %d already mounted", ErrNotContiguous, v.Hdr.Index)
	}
	if i > 0 {
		if err := continues(s.vols[i-1], v); err != nil {
			return err
		}
	}
	if i < len(s.vols) {
		if err := continues(v, s.vols[i]); err != nil {
			return err
		}
	}
	s.vols = append(s.vols, nil)
	copy(s.vols[i+1:], s.vols[i:])
	s.vols[i] = v
	return nil
}

// continues checks that next, a later volume of pred's sequence, starts where
// pred's data capacity ends (or, with offline volumes between them, past it).
func continues(pred, next *Volume) error {
	end := pred.Hdr.StartOffset + uint64(pred.DataCapacity())
	start := next.Hdr.StartOffset
	if start == end || (start > end && next.Hdr.Index > pred.Hdr.Index+1) {
		return nil
	}
	return fmt.Errorf("%w: volume %d starts at block %d, but volume %d (capacity %d blocks) ends at %d",
		ErrNotContiguous, next.Hdr.Index, start, pred.Hdr.Index, pred.Dev.Capacity(), end)
}

// Remove unmounts the volume with the given index; the active (newest)
// volume cannot be removed.
func (s *Set) Remove(index uint32) (*Volume, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range s.vols {
		if v.Hdr.Index == index {
			if i == len(s.vols)-1 {
				return nil, fmt.Errorf("volume: cannot unmount the active volume %d", index)
			}
			s.vols = append(s.vols[:i], s.vols[i+1:]...)
			return v, nil
		}
	}
	return nil, fmt.Errorf("volume: volume %d not mounted", index)
}

// Volumes returns the mounted volumes in index order.
func (s *Set) Volumes() []*Volume {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Volume, len(s.vols))
	copy(out, s.vols)
	return out
}

// Active returns the newest mounted volume, or nil for an empty set.
func (s *Set) Active() *Volume {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.vols) == 0 {
		return nil
	}
	return s.vols[len(s.vols)-1]
}

// Locate maps a global data-block index to (volume, local index). A block on
// an unmounted volume returns ErrOffline; a block past the active volume's
// start range returns the active volume (the caller's read will report
// unwritten as appropriate).
func (s *Set) Locate(global int) (*Volume, int, error) {
	if global < 0 {
		return nil, 0, ErrOutOfRange
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := uint64(global)
	for _, v := range s.vols {
		start := v.Hdr.StartOffset
		end := start + uint64(v.DataCapacity())
		if g < start {
			// Falls in a gap before this mounted volume: offline.
			return nil, 0, fmt.Errorf("%w: global block %d", ErrOffline, global)
		}
		if g < end {
			return v, int(g - start), nil
		}
	}
	return nil, 0, fmt.Errorf("%w: global block %d beyond mounted volumes", ErrOffline, global)
}

// GlobalEnd returns the global data-block index one past the last written
// data block (using the active volume's written count).
func (s *Set) GlobalEnd() (int, error) {
	a := s.Active()
	if a == nil {
		return 0, nil
	}
	w, err := a.DataWritten()
	if err != nil {
		return 0, err
	}
	return int(a.Hdr.StartOffset) + w, nil
}
