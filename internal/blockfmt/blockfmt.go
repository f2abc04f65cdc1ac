// Package blockfmt implements the on-disk block format of the Clio log
// service (paper Figure 1).
//
// A block holds a sequence of log-entry records packed from the front, an
// index of 16-bit record sizes packed from the back (so a block can be
// scanned forwards or backwards), and a fixed footer carrying the block's
// self-identification: entry count, the mandatory timestamp of the first
// entry in the block (§2.1 — "a header timestamp is mandatory for the first
// log entry in each block, so the [time] search succeeds to a resolution of
// at least a single block"), flags and a CRC-32C.
//
//	+--------------------------------------------------------------+
//	| entry 1 | entry 2 | ... | entry k |  free  | s_k ... s_2 s_1 | footer |
//	+--------------------------------------------------------------+
//
// Entry records carry one of three header forms in front of the client
// data:
//
//   - minimal: 2 bytes (4-bit header-version, 12-bit local-logfile-id).
//     With the 2-byte size slot in the trailer index this is the paper's
//     4-byte minimal header (§2.2).
//   - full: version+id (2) + attribute flags (1) + reserved (1) + 64-bit
//     timestamp (8) = 12 bytes, i.e. the paper's "complete, 14-byte log
//     entry header" once its size slot is counted (§3.2).
//   - multi: the full header with the reserved byte counting additional
//     member log-file ids (2 bytes each) that follow the timestamp — the
//     paper's multi-membership entries ("usually only one", §2.1).
//
// An entry larger than the space left in a block is fragmented over
// successive blocks (§2.1 footnote 7). Every fragment repeats the 2-byte
// version+id word so that each block is self-describing, "sufficient to
// identify and parse every log entry in a block, as is necessary during
// server initialization" (§2.2). The size slot's top two bits mark
// continuation fragments and non-final fragments.
package blockfmt

import (
	"errors"
	"fmt"

	"clio/internal/wire"
)

// Header forms (the 4-bit version field of the leading header word).
const (
	// FormMinimal is the 4-byte header: version+id word plus the size slot.
	FormMinimal = 0
	// FormFull is the 14-byte header: version+id, attribute flags, reserved,
	// 64-bit timestamp, plus the size slot.
	FormFull = 1
	// FormMulti is the full header with the reserved byte carrying a count
	// of additional member log-file ids (2 bytes each) after the timestamp
	// — §2.1: "the logging service allows a log entry to be a member of
	// more than one log file".
	FormMulti = 2
)

// MaxExtraIDs bounds the additional memberships of a FormMulti entry.
const MaxExtraIDs = 15

// Attribute flag bits carried by FormFull headers.
const (
	// AttrForced marks an entry written synchronously (forced, §2.3.1).
	AttrForced = 1 << 0
	// AttrSystem marks an entry written by the service itself (entrymap,
	// catalog, bad-block records).
	AttrSystem = 1 << 1
	// AttrRelocated marks an entry copied forward by the compactor from an
	// old sealed volume. A relocated copy is only visible to readers once
	// the compaction that wrote it has committed; an uncommitted copy (a
	// crash between writing copies and committing) is permanently skipped.
	AttrRelocated = 1 << 2
)

// Size-slot flag bits (the slot's low 14 bits are the fragment length).
const (
	slotContinued = 1 << 15 // record continues an entry from a previous block
	slotContinues = 1 << 14 // entry continues into the next block
	slotLenMask   = slotContinues - 1
)

// Block footer flag bits.
const (
	// FlagEntrymapBoundary marks a block that begins with entrymap log
	// entries written at an N^i boundary (possibly displaced, §2.3.2).
	FlagEntrymapBoundary = 1 << 0
	// FlagSealedByForce marks a block sealed (padded) early to satisfy a
	// synchronous write without rewriteable tail storage.
	FlagSealedByForce = 1 << 1
	// FlagVolumeHeader marks the volume's first block, holding the volume
	// header record rather than client entries.
	FlagVolumeHeader = 1 << 2
	// FlagVolumeSealed marks the final block of a full volume whose log
	// continues on a successor volume.
	FlagVolumeSealed = 1 << 3
	// FlagsFragment is the footer's top four bits: in a block whose first
	// record continues an entry, which fragment of that entry it is (see
	// FragmentFlags). Zero in a block that continues nothing, and in every
	// block of a build that did not number fragments: a reader takes zero as
	// "not numbered" and checks nothing.
	FlagsFragment = 0xF0
)

// FragmentFlags returns the FlagsFragment bits of fragment k >= 1 of an
// entry (the first fragment is k = 0 and numbers nothing): k mod 15, plus
// one, so that the bits are never zero. A chain reader expects the
// fragments 1, 2, … in the blocks it follows: a block that was lost from
// the middle of the chain shows as a number skipped, unless fifteen were
// lost in a row. The number rides with the block image, so a block the
// writer slid past a damaged one (§2.3.2) keeps it.
func FragmentFlags(k int) uint8 { return uint8((k-1)%15+1) << 4 }

// FooterSize is the byte size of the fixed block footer:
// magic(2) version(1) flags(1) count(2) firstTS(8) blockIndex(4) crc(4).
const FooterSize = 22

// Magic identifies a Clio-formatted block.
const Magic = 0xC110

// FormatVersion is the block format version this package writes.
const FormatVersion = 1

// Errors.
var (
	// ErrBadMagic indicates the block is not Clio-formatted (or is garbage).
	ErrBadMagic = errors.New("blockfmt: bad magic")
	// ErrBadChecksum indicates the block failed its CRC, i.e. it was damaged
	// after being written (§2.3.2).
	ErrBadChecksum = errors.New("blockfmt: checksum mismatch")
	// ErrCorruptIndex indicates the trailer index is inconsistent.
	ErrCorruptIndex = errors.New("blockfmt: corrupt trailer index")
	// ErrTooLarge indicates a record fragment that cannot fit an empty block.
	ErrTooLarge = errors.New("blockfmt: fragment too large for block")
	// ErrNoSpace indicates the builder has insufficient free space.
	ErrNoSpace = errors.New("blockfmt: no space in block")
	// ErrBlockSize indicates an unsupported block size.
	ErrBlockSize = errors.New("blockfmt: unsupported block size")
)

// MinBlockSize and MaxBlockSize bound supported block sizes. The 14-bit
// fragment-length field caps usable payload per block.
const (
	MinBlockSize = 128
	MaxBlockSize = 16384
)

// HeaderLen returns the in-payload byte length of a header form (excluding
// the 2-byte size slot in the trailer index). FormMulti headers add 2 bytes
// per extra id on top of this base (see Record.HeaderLen).
func HeaderLen(form uint8) int {
	if form == FormFull || form == FormMulti {
		return 12
	}
	return 2
}

// MultiHeaderLen returns the in-payload header length of a FormMulti record
// with the given number of extra member ids.
func MultiHeaderLen(extraIDs int) int {
	return 12 + 2*extraIDs
}

// Record is one entry fragment to be placed in a block.
type Record struct {
	// LogID is the 12-bit local-logfile-id the record belongs to.
	LogID uint16
	// Form selects the header form (FormMinimal or FormFull).
	Form uint8
	// AttrFlags carries FormFull attribute bits; ignored for FormMinimal.
	AttrFlags uint8
	// Timestamp is the entry timestamp (Unix nanoseconds); written only for
	// FormFull.
	Timestamp int64
	// Continued marks a fragment continuing an entry from a previous block.
	Continued bool
	// Continues marks a fragment whose entry continues into the next block.
	Continues bool
	// Data is the fragment's client data (for the first fragment this is the
	// leading portion of the entry's data).
	Data []byte
	// ExtraIDs are additional member log files (FormMulti only, §2.1).
	ExtraIDs []uint16
}

// RecordView is one record of a parsed block, filled in on demand by
// Parsed.Record from the block's image: Data and ExtraIDs alias the image,
// the other fields are read from the record's header. Filling one
// allocates nothing.
type RecordView struct {
	Timestamp int64  // the header's own; valid only when Form is FormFull or FormMulti
	Data      []byte // the fragment's client data
	ExtraIDs  IDs    // FormMulti only
	LogID     uint16
	Form      uint8
	AttrFlags uint8
	Continued bool
	Continues bool
}

// IDs is a multi-membership record's extra log-file ids as its header holds
// them, two little-endian bytes each: a view of the block image.
type IDs []byte

// Len returns the number of ids.
func (x IDs) Len() int { return len(x) / 2 }

// At returns id k.
func (x IDs) At(k int) uint16 { return uint16(x[2*k]) | uint16(x[2*k+1])<<8 }

// Append appends the ids to dst.
func (x IDs) Append(dst []uint16) []uint16 {
	for k := 0; k < x.Len(); k++ {
		dst = append(dst, x.At(k))
	}
	return dst
}

// HeaderLen returns the record's in-payload header length.
func (r *Record) HeaderLen() int {
	if r.Form == FormMulti {
		return MultiHeaderLen(len(r.ExtraIDs))
	}
	return HeaderLen(r.Form)
}

// Builder accumulates records into a block image. It is append-only: a
// record once placed is never moved or rewritten, and every block is built
// in a buffer of its own (NewBuilder, Reset), so a View taken of the block
// stays valid while the builder goes on appending.
type Builder struct {
	blockSize  int
	blockIndex uint32
	flags      uint8
	// payload holds the records packed from the front; its backing array
	// is the whole blockSize image, whose back the size slots fill
	// downwards from the footer as records are placed.
	payload []byte
	count   int
	firstTS int64
	haveTS  bool
}

// NewBuilder returns a builder for a block of the given size at the given
// volume-relative index.
func NewBuilder(blockSize int, blockIndex uint32) (*Builder, error) {
	if blockSize < MinBlockSize || blockSize > MaxBlockSize {
		return nil, fmt.Errorf("%w: %d", ErrBlockSize, blockSize)
	}
	return &Builder{
		blockSize:  blockSize,
		blockIndex: blockIndex,
		payload:    make([]byte, 0, blockSize),
	}, nil
}

// Reset prepares the builder for a new block at the given index, in a fresh
// buffer: views of the previous block keep theirs.
func (b *Builder) Reset(blockIndex uint32) {
	*b = Builder{blockSize: b.blockSize, blockIndex: blockIndex, payload: make([]byte, 0, b.blockSize)}
}

// SetBlockIndex relocates the block being built. The writer uses this when
// the block's intended slot turns out to be damaged and is invalidated: the
// staged contents slide forward to the next good block (§2.3.2).
func (b *Builder) SetBlockIndex(idx uint32) { b.blockIndex = idx }

// SetFlags ors the given footer flag bits into the block flags.
func (b *Builder) SetFlags(flags uint8) { b.flags |= flags }

// Count returns the number of records placed so far.
func (b *Builder) Count() int { return b.count }

// Free returns the bytes available for the next record's header+data,
// accounting for the record's own 2-byte size slot and the footer.
func (b *Builder) Free() int {
	free := b.blockSize - FooterSize - len(b.payload) - 2*b.count - 2
	if free < 0 {
		return 0
	}
	return free
}

// FreeData returns the client data bytes available for the next record with
// the given header form.
func (b *Builder) FreeData(form uint8) int {
	n := b.Free() - HeaderLen(form)
	if n < 0 {
		return 0
	}
	return n
}

// Append places a record fragment in the block. The caller must have sized
// Data to fit (see FreeData); Append returns ErrNoSpace otherwise.
func (b *Builder) Append(rec Record) error {
	if len(rec.ExtraIDs) > MaxExtraIDs {
		return fmt.Errorf("blockfmt: %d extra ids exceeds maximum %d", len(rec.ExtraIDs), MaxExtraIDs)
	}
	need := rec.HeaderLen() + len(rec.Data)
	if need > b.Free() {
		return ErrNoSpace
	}
	fragLen := need
	if fragLen > slotLenMask {
		return ErrTooLarge
	}
	verID, err := wire.PackVerID(rec.Form, rec.LogID)
	if err != nil {
		return err
	}
	for _, id := range rec.ExtraIDs {
		if id > wire.MaxLogID {
			return wire.ErrIDRange
		}
	}
	// Free left room for the record and its slot: the appends stay inside
	// the backing array, short of the slots.
	b.payload = append(b.payload, verID[0], verID[1])
	switch rec.Form {
	case FormFull:
		b.payload = append(b.payload, rec.AttrFlags, 0)
		b.payload = wire.PutUint64(b.payload, uint64(rec.Timestamp))
	case FormMulti:
		b.payload = append(b.payload, rec.AttrFlags, byte(len(rec.ExtraIDs)))
		b.payload = wire.PutUint64(b.payload, uint64(rec.Timestamp))
		for _, id := range rec.ExtraIDs {
			b.payload = wire.PutUint16(b.payload, id)
		}
	}
	b.payload = append(b.payload, rec.Data...)
	slot := uint16(fragLen)
	if rec.Continued {
		slot |= slotContinued
	}
	if rec.Continues {
		slot |= slotContinues
	}
	// Trailer index: s_k ... s_2 s_1 growing down from the footer.
	b.count++
	off := b.blockSize - FooterSize - 2*b.count
	img := b.payload[:b.blockSize]
	img[off] = byte(slot)
	img[off+1] = byte(slot >> 8)
	if !b.haveTS && rec.Timestamp != 0 {
		// The footer carries the mandatory first-entry timestamp even when
		// the entry itself uses the minimal (untimestamped) header form.
		// Zero timestamps (service-internal records) never stamp the
		// footer; the writer sets it explicitly via SetFirstTimestamp.
		b.firstTS = rec.Timestamp
		b.haveTS = true
	}
	return nil
}

// SetFirstTimestamp overrides the footer's first-entry timestamp. The writer
// calls this before the first record when the entry's logical receive time is
// known but the record uses the minimal header form.
func (b *Builder) SetFirstTimestamp(ts int64) {
	b.firstTS = ts
	b.haveTS = true
}

// FirstTimestamp returns the footer timestamp accumulated so far.
func (b *Builder) FirstTimestamp() (int64, bool) { return b.firstTS, b.haveTS }

// Seal finalizes the block image: zero-pads the free space, writes the
// trailer index and footer, and returns the blockSize-byte image. The
// builder remains valid (and unchanged) after Seal, so a caller staging the
// current partial block in rewriteable storage (the NVRAM tail, §2.3.1) can
// seal speculatively and keep appending.
func (b *Builder) Seal() []byte { return b.View().Seal() }

// View is the block a Builder held when the view was taken: the lengths of
// its record and slot prefixes, and its footer fields, over the builder's
// own buffer. Taking one copies nothing. The builder only ever writes past
// those prefixes, so the view may be sealed later, from another goroutine,
// while the builder goes on appending — provided the view reached that
// goroutine through a synchronizing hand-over (an atomic store and load).
type View struct {
	buf        []byte // the builder's whole blockSize buffer
	used       int    // record bytes
	count      int    // records
	firstTS    int64
	blockIndex uint32
	flags      uint8
}

// View returns the block as it stands now.
func (b *Builder) View() View {
	return View{
		buf:        b.payload[:b.blockSize],
		used:       len(b.payload),
		count:      b.count,
		firstTS:    b.firstTS,
		blockIndex: b.blockIndex,
		flags:      b.flags,
	}
}

// Seal returns the view's block image in a fresh buffer: records, zero
// padding, trailer index and footer, with its checksum.
func (v View) Seal() []byte {
	n := len(v.buf)
	out := make([]byte, n)
	copy(out, v.buf[:v.used])
	idx := n - FooterSize - 2*v.count
	copy(out[idx:n-FooterSize], v.buf[idx:n-FooterSize])
	v.footer(out)
	return out
}

// Finish seals the block in the builder's own buffer and returns it, with
// no copy: the free space of a buffer no record reached is still zero, so
// only the footer is written, which no View reads. Nothing may write the
// image. The builder stays as it was, and appending to it again is for a
// caller that has dropped the image: a later Finish rewrites the footer.
func (b *Builder) Finish() []byte {
	img := b.payload[:b.blockSize]
	b.View().footer(img)
	return img
}

// footer writes the view's footer and checksum into img.
func (v View) footer(img []byte) {
	n := len(img)
	foot := img[n-FooterSize:]
	foot[0] = byte(Magic & 0xFF)
	foot[1] = byte(Magic >> 8)
	foot[2] = FormatVersion
	foot[3] = v.flags
	foot[4] = byte(v.count)
	foot[5] = byte(v.count >> 8)
	putU64(foot[6:], uint64(v.firstTS))
	putU32(foot[14:], v.blockIndex)
	putU32(foot[18:], wire.Checksum(img[:n-4]))
}

// Reindex returns a copy of a sealed block image relocated to a new
// volume-relative index with extra footer flags or'ed in, recomputing the
// checksum. The input image is left unchanged. The device writer uses this
// when a seal staged earlier must land at a different slot than planned —
// a damaged block slid past (§2.3.2) or a volume boundary crossed — since
// footer flags like FlagVolumeSealed are a property of where the block
// lands, not of when it was sealed.
func Reindex(block []byte, blockIndex uint32, orFlags uint8) ([]byte, error) {
	n := len(block)
	if n < MinBlockSize {
		return nil, fmt.Errorf("%w: %d-byte block", ErrBlockSize, n)
	}
	if !Validate(block) {
		return nil, ErrBadChecksum
	}
	out := make([]byte, n)
	copy(out, block)
	foot := out[n-FooterSize:]
	foot[3] |= orFlags
	putU32(foot[14:], blockIndex)
	putU32(foot[18:], wire.Checksum(out[:n-4]))
	return out, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

// Parsed is a decoded block: its image, its footer's fields and an index of
// its records. The index is one uint16 per record, with no pointer in it for
// the garbage collector to mark: where the record ends in the image, with its
// size slot's two fragment bits on top (a record ends below MaxBlockSize,
// which fits the low 14 bits). Record fills in a record's view from it.
type Parsed struct {
	// BlockIndex is the volume-relative index recorded in the footer.
	BlockIndex uint32
	// Flags holds the footer flag bits.
	Flags uint8
	// FirstTimestamp is the mandatory timestamp of the block's first entry.
	FirstTimestamp int64

	img  []byte
	ends []uint16
}

// Len returns the number of records, in write order.
func (p *Parsed) Len() int { return len(p.ends) }

// start returns the offset of record i in the image.
func (p *Parsed) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(p.ends[i-1] & slotLenMask)
}

// Record fills r with a view of record i. Parse checked every header, so it
// cannot fail. It fills the caller's view rather than returning one: a
// cursor fills a view for every record it passes, and a returned 64-byte
// view is copied through memory, a third of a warm scan's time.
func (p *Parsed) Record(i int, r *RecordView) {
	e := p.ends[i]
	frag := p.img[p.start(i):int(e&slotLenMask)]
	form, id, _ := wire.UnpackVerID(frag)
	*r = RecordView{
		LogID:     id,
		Form:      form,
		Continued: e&slotContinued != 0,
		Continues: e&slotContinues != 0,
	}
	hl := HeaderLen(r.Form)
	if hl > 2 {
		r.AttrFlags = frag[2]
		r.Timestamp = int64(u64(frag[4:]))
	}
	if r.Form == FormMulti {
		hl = MultiHeaderLen(int(frag[3]))
		r.ExtraIDs = IDs(frag[12:hl])
	}
	r.Data = frag[hl:]
}

// stamp returns record i's own timestamp, if its header carries a nonzero
// one.
func (p *Parsed) stamp(i int) (int64, bool) {
	frag := p.img[p.start(i):]
	if form, _, _ := wire.UnpackVerID(frag); HeaderLen(form) == 2 {
		return 0, false
	}
	ts := int64(u64(frag[4:]))
	return ts, ts != 0
}

// EffectiveAt returns the timestamp in force when record i was written: its
// own for a full or multi header, otherwise the nearest preceding such
// header's in the block — at worst the mandatory first-entry footer
// timestamp (§2.1).
func (p *Parsed) EffectiveAt(i int) int64 {
	return p.EffectiveFrom(i, -1, p.FirstTimestamp)
}

// EffectiveFrom is EffectiveAt given record j's effective timestamp tsj (j
// = -1 with the footer timestamp states the rule from the block's start).
// It reads only the records between i and j, unless one of those after i
// carries a timestamp and i < j; so a scan that hands each result to its
// next call costs O(1) a record, forward or back, where EffectiveAt walks
// back to the nearest header every time.
func (p *Parsed) EffectiveFrom(i, j int, tsj int64) int64 {
	if i < j {
		for k := j; k > i; k-- {
			if _, ok := p.stamp(k); ok {
				return p.EffectiveAt(i)
			}
		}
		return tsj
	}
	for k := i; k > j; k-- {
		if ts, ok := p.stamp(k); ok {
			return ts
		}
	}
	return tsj
}

// Validate cheaply checks a block image's magic and checksum without
// decoding its records — the integrity test every device block read applies
// before an image is parsed or cached, since a device returns a block damaged
// after it was written as garbage with no error.
func Validate(block []byte) bool {
	n := len(block)
	if n < MinBlockSize {
		return false
	}
	foot := block[n-FooterSize:]
	if uint16(foot[0])|uint16(foot[1])<<8 != Magic {
		return false
	}
	return wire.Checksum(block[:n-4]) == u32(foot[18:])
}

// checkFooter verifies what must hold before any byte of a block image is
// believed — size, magic, format version, checksum — and returns the footer.
// ErrBadMagic means non-Clio contents (e.g. garbage written by a failure),
// ErrBadChecksum a damaged block; either way the service treats the block as
// lost (§2.3.2).
func checkFooter(block []byte) ([]byte, error) {
	n := len(block)
	if n < MinBlockSize {
		return nil, fmt.Errorf("%w: %d-byte block", ErrBlockSize, n)
	}
	foot := block[n-FooterSize:]
	if uint16(foot[0])|uint16(foot[1])<<8 != Magic {
		return nil, ErrBadMagic
	}
	if foot[2] != FormatVersion {
		return nil, fmt.Errorf("blockfmt: unsupported format version %d", foot[2])
	}
	if wire.Checksum(block[:n-4]) != u32(foot[18:]) {
		return nil, ErrBadChecksum
	}
	return foot, nil
}

// FirstTimestamp returns the mandatory timestamp of the block's first entry
// straight from the footer of a block image, verified as Parse verifies it
// but with no record decoded and nothing allocated: what a time search needs
// of the blocks it only dates. ok is false for a block that holds no entry —
// a tail just started — whose footer timestamp is not set yet.
func FirstTimestamp(block []byte) (ts int64, ok bool, err error) {
	foot, err := checkFooter(block)
	if err != nil {
		return 0, false, err
	}
	return int64(u64(foot[6:])), foot[4]|foot[5] != 0, nil
}

// Parse decodes and verifies a block image (see checkFooter for the errors
// of an image that cannot be believed), checking every record's header once
// so that Record need check none. The result refers to the image, which
// must not change while it is in use.
func Parse(block []byte) (Parsed, error) {
	foot, err := checkFooter(block)
	if err != nil {
		return Parsed{}, err
	}
	n := len(block)
	if n > MaxBlockSize {
		return Parsed{}, fmt.Errorf("%w: %d-byte block", ErrBlockSize, n)
	}
	count := int(uint16(foot[4]) | uint16(foot[5])<<8)
	limit := n - FooterSize - 2*count // where the records must end
	if limit < 0 {
		return Parsed{}, ErrCorruptIndex
	}
	ends := make([]uint16, count)
	off := 0
	for i := range ends {
		slotOff := n - FooterSize - 2*(i+1)
		slot := uint16(block[slotOff]) | uint16(block[slotOff+1])<<8
		fragLen := int(slot & slotLenMask)
		if off+fragLen > limit {
			return Parsed{}, ErrCorruptIndex
		}
		frag := block[off : off+fragLen]
		form, _, err := wire.UnpackVerID(frag)
		if err != nil {
			return Parsed{}, ErrCorruptIndex
		}
		hl := HeaderLen(form)
		if form == FormMulti && fragLen >= hl {
			if frag[3] > MaxExtraIDs {
				return Parsed{}, ErrCorruptIndex
			}
			hl = MultiHeaderLen(int(frag[3]))
		}
		if fragLen < hl {
			return Parsed{}, ErrCorruptIndex
		}
		off += fragLen
		ends[i] = uint16(off) | slot&^slotLenMask
	}
	return Parsed{
		BlockIndex:     u32(foot[14:]),
		Flags:          foot[3],
		FirstTimestamp: int64(u64(foot[6:])),
		img:            block,
		ends:           ends,
	}, nil
}

func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func u64(b []byte) uint64 {
	return uint64(u32(b)) | uint64(u32(b[4:]))<<32
}
