// Package entrymap implements the entrymap log file of §2.1 — the sparse,
// hierarchical bitmap index that lets the Clio service locate the blocks
// containing a given log file's entries with O(log_N d) block reads.
//
// A level-1 entrymap log entry appears every N blocks and carries, for each
// active log file with entries in the previous N blocks, an N-bit bitmap of
// which of those blocks contain such entries. A level-2 entry appears every
// N² blocks and marks which N-block groups contain entries, and so on: the
// entries form a search tree of degree N (Figure 2). The entrymap is pure
// redundancy — the same information is recoverable by scanning every block —
// which is what makes the displaced/missing-entry fallbacks of §2.3.2 sound.
//
// The package has three parts:
//
//   - Entry: the wire format of one entrymap log entry;
//   - Accumulator: the writer-side state that collects bitmaps for the
//     in-progress span of each level and emits the entries due at each
//     block boundary;
//   - Locator: the read-side search (FindPrev/FindNext/FindByTime) over an
//     abstract Source, counting the entrymap entries it examines so the
//     experiments can reproduce Figure 3 and Table 1.
//
// Block indices in this package are *data-block* indices: volume-relative
// indices with the volume header block excluded, so the first data block of
// a volume is index 0.
package entrymap

import (
	"errors"

	"clio/internal/wire"
)

// Reserved local log-file ids (§2.1's special log files).
const (
	// VolumeSeqID denotes the volume sequence log file: the sequence of all
	// entries ever written to the volume. It is implicit and never carried
	// in entrymap bitmaps (footnote 6).
	VolumeSeqID = 0
	// EntrymapID is the log file holding entrymap entries themselves, also
	// excluded from its own bitmaps (footnote 6).
	EntrymapID = 1
	// CatalogID is the catalog log file of §2.2.
	CatalogID = 2
	// BadBlockID is the log file recording corrupted unwritten blocks
	// (§2.3.2).
	BadBlockID = 3
	// FirstClientID is the first id available to client log files.
	FirstClientID = 4
	// CheckpointID is the log file holding recovery checkpoint records:
	// periodic snapshots of the server's volatile recovery state (§2.3.1)
	// written as ordinary log entries so reopen can replay only the blocks
	// after the newest valid checkpoint. It sits at the top of the 12-bit
	// id space, far from the client range, and — unlike the volume
	// sequence and the entrymap itself — it IS carried in entrymap
	// bitmaps, so recovery can find checkpoint blocks with the ordinary
	// locator search.
	CheckpointID = wire.MaxLogID
	// CompactID is the log file recording compaction commits: one entry
	// per relocated volume, appended after that volume's live entries have
	// been copied forward. Like CheckpointID it lives at the top of the id
	// space and is carried in entrymap bitmaps. Its entries also reset the
	// running block timestamp after a batch of relocated copies (which
	// carry their original, older timestamps).
	CompactID = wire.MaxLogID - 1
)

// Errors.
var (
	// ErrBadEntry indicates an undecodable entrymap entry.
	ErrBadEntry = errors.New("entrymap: malformed entry")
	// ErrDegree indicates an unsupported tree degree N.
	ErrDegree = errors.New("entrymap: unsupported degree")
)

// MinDegree and MaxDegree bound the tree degree N. The paper evaluates
// N ∈ {4..128} and recommends 16–32.
const (
	MinDegree = 2
	MaxDegree = 256
)

// DefaultDegree is the paper's measured configuration (N = 16).
const DefaultDegree = 16

// IDMap is one (log file, bitmap) pair within an entrymap entry.
type IDMap struct {
	ID   uint16
	Bits wire.Bitmap
}

// Entry is a decoded entrymap log entry.
type Entry struct {
	// Level is the entry's tree level, 1-based.
	Level int
	// Boundary is the nominal data-block index this entry was due at; the
	// entry covers the span [Boundary-N^Level, Boundary). Recording the
	// boundary in the entry makes displaced entries (§2.3.2)
	// self-identifying.
	Boundary int
	// N is the tree degree, recorded for self-description.
	N int
	// Maps holds the per-log-file bitmaps, sorted by ID.
	Maps []IDMap
}

// Encode appends the entry's wire form to dst.
//
// Layout: level(1) boundary(u32) n(u16) count(uvarint) then per map:
// id(uvarint) bitmap((N+7)/8 bytes).
func (e *Entry) Encode(dst []byte) []byte {
	dst = append(dst, byte(e.Level))
	dst = wire.PutUint32(dst, uint32(e.Boundary))
	dst = wire.PutUint16(dst, uint16(e.N))
	dst = wire.PutUvarint(dst, uint64(len(e.Maps)))
	for _, m := range e.Maps {
		dst = wire.PutUvarint(dst, uint64(m.ID))
		dst = append(dst, m.Bits...)
	}
	return dst
}

// Decode parses an entrymap entry from data. The entry owns its bitmaps.
func Decode(data []byte) (*Entry, error) {
	v, err := DecodeView(data)
	if err != nil {
		return nil, err
	}
	return v.Entry(), nil
}

// View is an entrymap entry read in place from its wire form: DecodeView
// decodes the header and validates the maps once, Get then searches them
// where they lie. A View costs no allocation to make and holds nothing but
// a reference to the bytes it was decoded from, which the caller must keep
// immutable while the View is in use — a sealed block's cached image
// qualifies, which is how the service answers the locator's probes of
// cached blocks without decoding an entry per probe or keeping a decoded
// copy per block.
type View struct {
	Level, Boundary, N int
	// maps is the entry's map list as encoded: uvarint id then (N+7)/8 bitmap
	// bytes, repeated, ids ascending.
	maps []byte
}

// DecodeView parses an entrymap entry from data without copying it.
func DecodeView(data []byte) (View, error) {
	if len(data) < 7 {
		return View{}, ErrBadEntry
	}
	v := View{Level: int(data[0])}
	b32, err := wire.Uint32(data[1:])
	if err != nil {
		return View{}, ErrBadEntry
	}
	v.Boundary = int(b32)
	n16, err := wire.Uint16(data[5:])
	if err != nil {
		return View{}, ErrBadEntry
	}
	v.N = int(n16)
	if v.N < MinDegree || v.N > MaxDegree || v.Level < 1 || v.Level > 16 {
		return View{}, ErrBadEntry
	}
	rest := data[7:]
	count, used, err := wire.Uvarint(rest)
	if err != nil {
		return View{}, ErrBadEntry
	}
	rest = rest[used:]
	mapBytes := (v.N + 7) / 8
	// The count is attacker-controlled on damaged media: it cannot exceed
	// what the remaining bytes could possibly hold.
	if count > uint64(len(rest)) {
		return View{}, ErrBadEntry
	}
	v.maps = rest
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		id, used, err := wire.Uvarint(rest)
		// Union walks the maps and the id set in step: ids must ascend.
		if err != nil || id > wire.MaxLogID || id < prev || len(rest) < used+mapBytes {
			return View{}, ErrBadEntry
		}
		prev = id
		rest = rest[used+mapBytes:]
	}
	v.maps = v.maps[:len(v.maps)-len(rest)]
	return v, nil
}

// Union stores in dst the OR of the bitmaps of ids (ascending) and returns
// it, or returns nil if none of ids has entries in the span, found in one
// merged walk of the entry's map list and the id set. dst must hold
// (N+7)/8 bytes; the result aliases it, not the viewed bytes.
func (v View) Union(ids []uint16, dst wire.Bitmap) wire.Bitmap {
	mapBytes := (v.N + 7) / 8
	dst = dst[:mapBytes]
	clear(dst)
	found := false
	for rest := v.maps; len(rest) > 0 && len(ids) > 0; {
		got, used, _ := wire.Uvarint(rest) // validated by DecodeView
		for len(ids) > 0 && uint64(ids[0]) < got {
			ids = ids[1:]
		}
		if len(ids) > 0 && uint64(ids[0]) == got {
			for i, b := range rest[used : used+mapBytes] {
				dst[i] |= b
			}
			found = true
			// Answer with an id's first map: a repeat of it (legal on the
			// wire) is passed over.
			for len(ids) > 0 && uint64(ids[0]) == got {
				ids = ids[1:]
			}
		}
		rest = rest[used+mapBytes:]
	}
	if !found {
		return nil
	}
	return dst
}

// Entry expands the view into an Entry that owns its bitmaps.
func (v View) Entry() *Entry {
	e := &Entry{Level: v.Level, Boundary: v.Boundary, N: v.N}
	mapBytes := (v.N + 7) / 8
	for rest := v.maps; len(rest) > 0; rest = rest[mapBytes:] {
		id, used, _ := wire.Uvarint(rest) // validated by DecodeView
		rest = rest[used:]
		e.Maps = append(e.Maps, IDMap{ID: uint16(id), Bits: wire.Bitmap(rest[:mapBytes]).Clone()})
	}
	return e
}

// pow returns n^i, saturating well above any real volume size.
func pow(n, i int) int {
	out := 1
	for ; i > 0; i-- {
		if out > 1<<40 {
			return 1 << 40
		}
		out *= n
	}
	return out
}

// MaxLevel returns the highest level whose span fits within blocks data
// blocks, minimum 1.
func MaxLevel(n, blocks int) int {
	level := 1
	for pow(n, level+1) <= blocks {
		level++
	}
	return level
}

// tracked reports whether an id participates in entrymap bitmaps.
func tracked(id uint16) bool { return id != VolumeSeqID && id != EntrymapID }
