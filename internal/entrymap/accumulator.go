package entrymap

import (
	"fmt"
	"sort"

	"clio/internal/wire"
)

// Accumulator is the writer-side entrymap state: for every tree level it
// collects the bitmap of the in-progress span, and at each block boundary it
// emits the entrymap entries that are due and rolls their contents up one
// level. This is exactly the state the paper's server keeps in volatile
// memory and must reconstruct after a crash (§2.3.1).
type Accumulator struct {
	n      int
	levels []*levelAcc // levels[i] is level i+1
}

type levelAcc struct {
	spanStart int
	maps      map[uint16]wire.Bitmap
}

// NewAccumulator returns an accumulator for tree degree n.
func NewAccumulator(n int) (*Accumulator, error) {
	if n < MinDegree || n > MaxDegree {
		return nil, fmt.Errorf("%w: N=%d", ErrDegree, n)
	}
	return &Accumulator{n: n}, nil
}

// N returns the tree degree.
func (a *Accumulator) N() int { return a.n }

func (a *Accumulator) level(i int) *levelAcc {
	for len(a.levels) < i {
		a.levels = append(a.levels, &levelAcc{
			maps: make(map[uint16]wire.Bitmap),
		})
	}
	return a.levels[i-1]
}

// NoteBlock records that sealed data block `block` contains entries of the
// given log files (level-1 information). Untracked ids (the volume sequence
// and the entrymap log itself, footnote 6) are ignored.
func (a *Accumulator) NoteBlock(block int, ids []uint16) {
	l := a.level(1)
	bit := block % a.n
	for _, id := range ids {
		if !tracked(id) {
			continue
		}
		bm, ok := l.maps[id]
		if !ok {
			bm = wire.NewBitmap(a.n)
			l.maps[id] = bm
		}
		bm.Set(bit)
	}
}

// noteGroup records at level `lvl` that group `group` (a completed span of
// level lvl-1) contains entries of id.
func (a *Accumulator) noteGroup(lvl int, group int, id uint16) {
	l := a.level(lvl)
	bm, ok := l.maps[id]
	if !ok {
		bm = wire.NewBitmap(a.n)
		l.maps[id] = bm
	}
	bm.Set(group % a.n)
}

// EntriesDue must be called when the writer is about to start the data block
// at index boundary (i.e. blocks [0, boundary) are complete). It returns the
// entrymap entries due at that boundary, highest level first — the paper
// notes a block containing a level-(i+1) entry also contains a level-i entry
// — and advances the accumulator's spans. A boundary of 0 or one that is not
// a multiple of N returns nil.
func (a *Accumulator) EntriesDue(boundary int) []*Entry {
	if boundary <= 0 || boundary%a.n != 0 {
		return nil
	}
	var due []*Entry
	for lvl := 1; ; lvl++ {
		span := pow(a.n, lvl)
		if boundary%span != 0 {
			break
		}
		l := a.level(lvl)
		e := &Entry{Level: lvl, Boundary: boundary, N: a.n}
		ids := make([]uint16, 0, len(l.maps))
		for id := range l.maps {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		group := (boundary - span) / span // index of the completed span at lvl
		for _, id := range ids {
			bm := l.maps[id]
			if bm.Empty() {
				continue
			}
			e.Maps = append(e.Maps, IDMap{ID: id, Bits: bm.Clone()})
			// Roll up into the parent level whether or not the parent is
			// due at this boundary.
			a.noteGroup(lvl+1, group, id)
		}
		// Reset this level's span.
		l.spanStart = boundary
		l.maps = make(map[uint16]wire.Bitmap)
		due = append(due, e)
	}
	// Highest level first.
	for i, j := 0, len(due)-1; i < j; i, j = i+1, j-1 {
		due[i], due[j] = due[j], due[i]
	}
	return due
}

// Pending returns the in-progress bitmap for (level, id) and the span start
// it covers given that blocks [0, end) are complete. The bitmap is nil when
// id has no entries in the partial span.
func (a *Accumulator) Pending(level int, id uint16) (wire.Bitmap, int) {
	if level < 1 || level > len(a.levels) {
		return nil, 0
	}
	l := a.levels[level-1]
	return l.maps[id], l.spanStart
}

// EncodeState appends a serialized snapshot of the accumulator — degree,
// every materialized level's span start and non-empty per-id bitmaps — to
// dst. The snapshot is what a recovery checkpoint stores so reopen can skip
// the reconstruction scan; DecodeState is its inverse.
//
// Layout: n(u16) levelCount(uvarint) then per level
// spanStart(uvarint) mapCount(uvarint) { id(uvarint) bitmap((n+7)/8 bytes) }*
// with ids sorted ascending so the encoding is deterministic.
func (a *Accumulator) EncodeState(dst []byte) []byte {
	dst = wire.PutUint16(dst, uint16(a.n))
	dst = wire.PutUvarint(dst, uint64(len(a.levels)))
	for _, l := range a.levels {
		dst = wire.PutUvarint(dst, uint64(l.spanStart))
		ids := make([]uint16, 0, len(l.maps))
		for id, bm := range l.maps {
			if !bm.Empty() {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		dst = wire.PutUvarint(dst, uint64(len(ids)))
		for _, id := range ids {
			dst = wire.PutUvarint(dst, uint64(id))
			dst = append(dst, l.maps[id]...)
		}
	}
	return dst
}

// DecodeState parses a snapshot produced by EncodeState and returns the
// restored accumulator plus the number of bytes consumed.
func DecodeState(data []byte) (*Accumulator, int, error) {
	if len(data) < 2 {
		return nil, 0, ErrBadEntry
	}
	n16, err := wire.Uint16(data)
	if err != nil {
		return nil, 0, ErrBadEntry
	}
	a, err := NewAccumulator(int(n16))
	if err != nil {
		return nil, 0, err
	}
	off := 2
	bmLen := (a.n + 7) / 8
	levelCount, c, err := wire.Uvarint(data[off:])
	if err != nil || levelCount > 64 {
		return nil, 0, ErrBadEntry
	}
	off += c
	for lvl := 1; lvl <= int(levelCount); lvl++ {
		l := a.level(lvl)
		span, c, err := wire.Uvarint(data[off:])
		if err != nil {
			return nil, 0, ErrBadEntry
		}
		off += c
		l.spanStart = int(span)
		mapCount, c, err := wire.Uvarint(data[off:])
		if err != nil || mapCount > uint64(wire.MaxLogID)+1 {
			return nil, 0, ErrBadEntry
		}
		off += c
		for m := uint64(0); m < mapCount; m++ {
			id, c, err := wire.Uvarint(data[off:])
			if err != nil || id > wire.MaxLogID {
				return nil, 0, ErrBadEntry
			}
			off += c
			if off+bmLen > len(data) {
				return nil, 0, ErrBadEntry
			}
			bm := wire.NewBitmap(a.n)
			copy(bm, data[off:off+bmLen])
			off += bmLen
			l.maps[uint16(id)] = bm
		}
	}
	return a, off, nil
}
