package core

import (
	"fmt"
	"io"
	"math"
	"time"

	"clio/internal/blockfmt"
	"clio/internal/entrymap"
	"clio/internal/volume"
)

// Entry is one log entry as returned by a cursor.
type Entry struct {
	// LogID is the log file the entry was written to (its most specific
	// sublog).
	LogID uint16
	// Timestamp is the entry's effective server timestamp: its own when the
	// full header form was used, otherwise inherited from the nearest
	// preceding timestamp in the block (at worst the block's mandatory
	// first-entry timestamp, §2.1).
	Timestamp int64
	// Timestamped reports whether the entry carried its own timestamp.
	Timestamped bool
	// Forced reports whether the entry was written synchronously.
	Forced bool
	// Data is the entry's client data.
	Data []byte
	// Block and Index locate the entry's first fragment (global data block
	// and record index within it).
	Block int
	Index int
	// ExtraIDs lists additional member log files for multi-membership
	// entries (§2.1); nil for ordinary entries.
	ExtraIDs []uint16
	// Shard is the shard the entry was read from when the service is one
	// partition of a sharded store; always 0 for a standalone service.
	Shard int
}

// MemberOf reports whether the entry belongs to the given (shard-local)
// log file, considering multi-membership (§2.1).
func (e *Entry) MemberOf(id uint16) bool {
	if e.LogID == id {
		return true
	}
	for _, ex := range e.ExtraIDs {
		if ex == id {
			return true
		}
	}
	return false
}

// DecodeEntry returns the entry whose first fragment is record idx of global
// block `block`. p is the block's decode and fetch supplies the following
// blocks if the entry is fragmented (see volume.Assemble). It is
// the one place a stored record becomes an Entry, for the service's cursors
// and ReadAt and for a follower reading its replicated devices alike. An
// unfragmented entry's Data is a subslice of the block image and nothing is
// allocated. An entry whose chain cannot be completed is ErrLost.
func DecodeEntry(p *blockfmt.Parsed, block, idx int, fetch func(global int) (*blockfmt.Parsed, error)) (Entry, error) {
	return decodeEntry(p, block, idx, nil, fetch)
}

// decodeEntry is DecodeEntry taking the entry's timestamp from eff, which
// may be nil.
func decodeEntry(p *blockfmt.Parsed, block, idx int, eff *effMemo, fetch func(global int) (*blockfmt.Parsed, error)) (Entry, error) {
	if idx < 0 || idx >= len(p.Records) {
		return Entry{}, fmt.Errorf("clio: no record %d in block %d", idx, block)
	}
	r := &p.Records[idx]
	if r.Continued {
		return Entry{}, fmt.Errorf("clio: record %d of block %d is a continuation fragment", idx, block)
	}
	data, err := volume.Assemble(p, block, idx, fetch)
	if err != nil {
		return Entry{}, ErrLost
	}
	return Entry{
		LogID:       r.LogID,
		Timestamp:   eff.at(p, idx),
		Timestamped: r.Form != blockfmt.FormMinimal,
		Forced:      r.AttrFlags&blockfmt.AttrForced != 0,
		Data:        data,
		Block:       block,
		Index:       idx,
		ExtraIDs:    r.ExtraIDs,
	}, nil
}

// entryAt is DecodeEntry over the service's own read path. A cursor passes
// its memo as eff; a one-off read passes nil.
func (s *Service) entryAt(db *decodedBlock, block, idx int, eff *effMemo) (Entry, error) {
	return decodeEntry(db.p, block, idx, eff, s.chainBlock)
}

// effMemo remembers the effective timestamp (§2.1) of the record a cursor
// decoded last, so its next decode in the same block reads only the records
// between the two (blockfmt's EffectiveFrom) instead of walking back to a
// header each time: a scan of a block of untimestamped records stays linear.
type effMemo struct {
	p   *blockfmt.Parsed // the decode record idx is in; nil before the first
	idx int
	ts  int64
}

// at returns the effective timestamp of p's record idx and remembers it. A
// nil memo remembers nothing.
func (m *effMemo) at(p *blockfmt.Parsed, idx int) int64 {
	if m == nil {
		return p.EffectiveAt(idx)
	}
	if m.p == p {
		m.ts = p.EffectiveFrom(idx, m.idx, m.ts)
	} else {
		m.p, m.ts = p, p.EffectiveAt(idx)
	}
	m.idx = idx
	return m.ts
}

// Cursor iterates over the entries of a log file — in either direction, and
// seekable by time (§2.1: "access can be provided to the sequence of entries
// in the file either subsequent to, or prior to, any previous point in
// time").
//
// The cursor's position is a gap between entries: Next returns the entry
// after the gap and advances; Prev returns the entry before the gap and
// retreats. A cursor remains valid as the log grows.
//
// Cursors never take the service's writer lock: sealed blocks are immutable,
// and the staged tail is read from the published snapshot, so any number of
// cursors may run concurrently with appends and with each other. A single
// Cursor must still not be shared by concurrent goroutines.
type Cursor struct {
	s    *Service
	root uint16          // the log file opened
	ids  map[uint16]bool // nil means every entry (the volume sequence log)
	// linear disables entrymap-guided block skipping: set when the id set
	// includes a log file the entrymap does not track (the entrymap log
	// itself — footnote 6 — cannot index itself).
	linear bool

	// idSorted is the cursor's id set, ascending: what the locator searches
	// for; nil when ids is nil.
	idSorted []uint16
	// gen is the catalog generation the set was built at: a sublog created
	// since is read too, so Next and Prev rebuild the set when it moved.
	gen uint64

	block int // current block (gap position)
	rec   int // next record index to consider within block
	eff   effMemo

	// redir, when non-nil, is the in-progress redirection of this cursor
	// through a compacted volume's relocated copies: the volume's original
	// blocks (possibly demoted to the cold tier) are skipped and its entries
	// are served from the hot copies instead, in original order. Only
	// selective cursors whose whole id set was relocated out of the volume
	// redirect; everything else reads the original blocks. See compact.go.
	redir *redirState

	// Per-cursor decode memo: one block's decoded form is reused across the
	// Next/Prev steps that stay within it, so an entry read touches each
	// block once (the unit Table 1 counts). The staged tail block is never
	// memoized — it grows.
	memoBlock int
	memoDec   *decodedBlock
}

// redirState tracks a cursor's walk over one compacted volume's copy ranges.
// c.block stays parked inside the volume while the walk runs; on exhaustion
// the cursor jumps past the volume (forward) or before it (backward).
type redirState struct {
	v    *relocVol
	back bool // iterating v.Ranges in reverse (Prev)
	ri   int  // current index into v.Ranges
	rb   int  // current physical block within the range; -1 = range not entered
	rr   int  // next record to consider in rb (forward) / one past (backward); -1 = unset
}

// enterRedirect reports whether a selective cursor positioned on the given
// block should serve a compacted volume through its relocated copies, and
// installs the walk state if so. Cursors over "/" (ids == nil) and linear
// cursors always read the original blocks: they are the physical views.
func (c *Cursor) enterRedirect(block int, back bool) bool {
	if c.ids == nil || c.linear || c.redir != nil {
		return false
	}
	view := c.s.compView()
	if view == nil {
		return false
	}
	v := view.volAt(block)
	if v == nil || !v.covers(c.idSorted) {
		return false
	}
	rd := &redirState{v: v, back: back, rb: -1, rr: -1}
	if back {
		rd.ri = len(v.Ranges) - 1
	}
	c.redir = rd
	return true
}

// OpenCursor returns a cursor over the log file at the given path,
// positioned at the start. Reading a log file includes its sublogs'
// entries: an entry logged in a sublog also belongs to the parent (§2.1).
// Opening "/" reads the volume sequence log — every entry on the sequence,
// including the service's own entrymap and catalog entries.
func (s *Service) OpenCursor(path string) (*Cursor, error) {
	if s.closedFlag.Load() {
		return nil, ErrClosed
	}
	id, err := s.cat.Resolve(path)
	if err != nil {
		return nil, err
	}
	return s.cursorFor(id)
}

// OpenCursorID is OpenCursor by log-file id.
func (s *Service) OpenCursorID(id uint16) (*Cursor, error) {
	if s.closedFlag.Load() {
		return nil, ErrClosed
	}
	return s.cursorFor(id)
}

func (s *Service) cursorFor(id uint16) (*Cursor, error) {
	c := &Cursor{s: s, root: id, memoBlock: -1}
	if id != entrymap.VolumeSeqID {
		if err := c.buildIDs(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildIDs (re)derives the cursor's id set from the catalog: the log file
// and every sublog beneath it now.
func (c *Cursor) buildIDs() error {
	gen := c.s.cat.Generation() // before the walk: a create racing it moves gen again
	ids, err := c.s.cat.Descendants(c.root)
	if err != nil {
		return err
	}
	c.gen, c.idSorted, c.linear = gen, ids, false
	c.ids = make(map[uint16]bool, len(ids))
	for _, d := range ids {
		c.ids[d] = true
		if d == entrymap.EntrymapID {
			c.linear = true
		}
	}
	return nil
}

// refreshIDs rebuilds the id set if a log file was created since it was
// built — one atomic load when none was.
func (c *Cursor) refreshIDs() error {
	if c.ids == nil || c.s.cat.Generation() == c.gen {
		return nil
	}
	return c.buildIDs()
}

func (c *Cursor) match(id uint16) bool {
	return c.ids == nil || c.ids[id]
}

// matchRecord reports whether the record belongs to the cursor's set,
// considering multi-membership entries (§2.1).
func (c *Cursor) matchRecord(r *blockfmt.RecordView) bool {
	if c.match(r.LogID) {
		return true
	}
	for _, ex := range r.ExtraIDs {
		if c.match(ex) {
			return true
		}
	}
	return false
}

// decodeCached decodes a block, reusing the cursor's memo when the same
// block is examined repeatedly. The staged tail block bypasses the memo.
func (c *Cursor) decodeCached(block int) (*decodedBlock, error) {
	tail := c.s.snap().tailGlobal
	if block == c.memoBlock && c.memoDec != nil && block != tail {
		return c.memoDec, nil
	}
	db, err := c.s.decodeBlock(block)
	if err == nil && block != tail {
		c.memoBlock, c.memoDec = block, db
	} else {
		c.memoBlock, c.memoDec = -1, nil
	}
	return db, err
}

// SeekStart positions the cursor before the first entry.
func (c *Cursor) SeekStart() {
	c.block, c.rec = 0, 0
	c.redir = nil
}

// SeekEnd positions the cursor after the last entry. The end is a gap, not
// a wall: when a partial tail block is staged, the cursor parks inside it
// after its current records, so entries appended later — to that same
// still-growing block or beyond — are returned by subsequent Next calls.
// (Parking past the tail block would skip every entry the block gains
// before it seals, which is exactly the boundary a live subscription
// resumes from.)
func (c *Cursor) SeekEnd() {
	c.redir = nil
	sn := c.s.snap()
	if sn.tailGlobal >= 0 {
		if db, err := c.decodeCached(sn.tailGlobal); err == nil {
			c.block, c.rec = sn.tailGlobal, len(db.p.Records)
			return
		}
	}
	c.block, c.rec = sn.end(), 0
}

// Next returns the first matching entry after the cursor position and
// advances past it. It returns io.EOF at the end of the log. The service is
// charged one IPC round trip per call under the cost model.
func (c *Cursor) Next() (*Entry, error) {
	if m := c.s.met(); m != nil {
		defer m.readLat.ObserveSince(time.Now())
	}
	c.s.opt.Clock.ChargeIPC(c.s.opt.RemoteIPC)
	c.s.opt.Clock.ChargeServerFixed()
	return c.next()
}

func (c *Cursor) next() (*Entry, error) {
	s := c.s
	if s.closedFlag.Load() {
		return nil, ErrClosed
	}
	if err := c.refreshIDs(); err != nil {
		return nil, err
	}
	for {
		sn := s.snap()
		end := sn.sealedEnd
		if sn.tailGlobal >= 0 {
			end = sn.tailGlobal + 1
		}
		if c.redir != nil {
			e, err := c.redirNext()
			if err != nil {
				return nil, err
			}
			if e != nil {
				return e, nil
			}
			// Copies exhausted: resume the sweep just past the volume.
			c.block, c.rec = c.redir.v.end(), 0
			c.redir = nil
			continue
		}
		if c.block >= end {
			return nil, io.EOF
		}
		if c.enterRedirect(c.block, false) {
			continue
		}
		db, err := c.decodeCached(c.block)
		if err != nil {
			// Damaged or invalidated block: its entries are lost (§2.3.2);
			// skip to the next candidate block.
			if err := c.advanceBlock(end, sn.tailGlobal); err != nil {
				return nil, err
			}
			continue
		}
		parsed := db.p
		for c.rec < len(parsed.Records) {
			i := c.rec
			r := parsed.Records[i]
			c.rec++
			if r.Continued || !c.matchRecord(&r) {
				continue
			}
			if c.ids != nil && r.AttrFlags&blockfmt.AttrRelocated != 0 {
				// Relocated copies are served only through redirection (above);
				// the sweep always skips them, so an entry whose original
				// volume the cursor reads directly is never delivered twice.
				continue
			}
			e, aerr := s.entryAt(db, c.block, i, &c.eff)
			if aerr != nil {
				continue // torn chain: skip the lost entry
			}
			return &e, nil
		}
		if c.block == sn.tailGlobal {
			// The staged tail block can still grow: stay parked on it with
			// c.rec at the scanned count, so entries appended later to this
			// same block are seen by the next call.
			return nil, io.EOF
		}
		if err := c.advanceBlock(end, sn.tailGlobal); err != nil {
			return nil, err
		}
	}
}

// redirNext returns the next matching entry from the redirected volume's
// copy ranges, or (nil, nil) when the ranges are exhausted.
func (c *Cursor) redirNext() (*Entry, error) {
	rd := c.redir
	for rd.ri < len(rd.v.Ranges) {
		r := &rd.v.Ranges[rd.ri]
		if rd.rb < r.StartBlock {
			rd.rb, rd.rr = r.StartBlock, r.StartRec
		}
		db, err := c.decodeCached(rd.rb)
		if err != nil {
			// A copy block should never be unreadable (copies are forced
			// before commit); treat damage like the sweep does and move on.
			rd.advance(r)
			continue
		}
		last := len(db.p.Records) - 1
		if rd.rb == r.EndBlock && r.EndRec < last {
			last = r.EndRec
		}
		for rd.rr <= last {
			i := rd.rr
			rd.rr++
			rec := db.p.Records[i]
			if rec.Continued || !c.matchRecord(&rec) {
				continue
			}
			e, aerr := c.s.entryAt(db, rd.rb, i, &c.eff)
			if aerr != nil {
				continue
			}
			return &e, nil
		}
		rd.advance(r)
	}
	return nil, nil
}

// advance steps a forward redirect walk to the next block of the current
// range, or to the next range.
func (rd *redirState) advance(r *copyRange) {
	if rd.rb >= r.EndBlock {
		rd.ri++
		rd.rb, rd.rr = -1, -1
	} else {
		rd.rb++
		rd.rr = 0
	}
}

// advanceBlock moves the cursor to the next block that may contain a
// matching entry, using the entrymap tree when the cursor is selective.
// When nothing lies ahead, the cursor parks on the staged tail block (it
// can still grow) rather than past it.
func (c *Cursor) advanceBlock(end, tail int) error {
	if c.ids == nil || c.linear {
		c.block++
		c.rec = 0
		return nil
	}
	next, err := c.s.locFindNext(c.idSorted, c.block+1)
	if err != nil {
		return err
	}
	if next == -1 {
		if tail > c.block {
			c.block, c.rec = tail, 0
		} else {
			c.block, c.rec = end, 0
		}
		return nil
	}
	c.block, c.rec = next, 0
	return nil
}

// Prev returns the first matching entry before the cursor position and
// retreats before it. It returns io.EOF at the beginning of the log.
func (c *Cursor) Prev() (*Entry, error) {
	if m := c.s.met(); m != nil {
		defer m.readLat.ObserveSince(time.Now())
	}
	c.s.opt.Clock.ChargeIPC(c.s.opt.RemoteIPC)
	c.s.opt.Clock.ChargeServerFixed()
	return c.prev()
}

func (c *Cursor) prev() (*Entry, error) {
	s := c.s
	if s.closedFlag.Load() {
		return nil, ErrClosed
	}
	if err := c.refreshIDs(); err != nil {
		return nil, err
	}
	end := s.endShared()
	if c.block > end {
		c.block, c.rec = end, 0
	}
	for {
		if c.redir != nil {
			e, err := c.redirPrev()
			if err != nil {
				return nil, err
			}
			if e != nil {
				return e, nil
			}
			// Copies exhausted: resume the sweep just before the volume.
			v := c.redir.v
			c.redir = nil
			c.block, c.rec = v.Start, 0
			if err := c.retreatBlock(); err != nil {
				return nil, err
			}
			continue
		}
		if c.block < 0 {
			return nil, io.EOF
		}
		if c.block < end && c.enterRedirect(c.block, true) {
			continue
		}
		var db *decodedBlock
		var err error
		if c.block < end {
			db, err = c.decodeCached(c.block)
		}
		if c.block == end || err != nil {
			// Past-the-end gap position or unreadable block: step back.
			if err := c.retreatBlock(); err != nil {
				return nil, err
			}
			continue
		}
		parsed := db.p
		// SeekPos takes any rec: one past the block's records is the gap
		// after its last.
		c.rec = min(c.rec, len(parsed.Records))
		for c.rec > 0 {
			i := c.rec - 1
			c.rec--
			r := parsed.Records[i]
			if r.Continued || !c.matchRecord(&r) {
				continue
			}
			if c.ids != nil && r.AttrFlags&blockfmt.AttrRelocated != 0 {
				continue // copies are served only through redirection
			}
			e, aerr := s.entryAt(db, c.block, i, &c.eff)
			if aerr != nil {
				continue
			}
			return &e, nil
		}
		if err := c.retreatBlock(); err != nil {
			return nil, err
		}
	}
}

// redirPrev is redirNext in reverse: the last not-yet-returned matching copy
// of the redirected volume, or (nil, nil) when exhausted.
func (c *Cursor) redirPrev() (*Entry, error) {
	rd := c.redir
	for rd.ri >= 0 {
		r := &rd.v.Ranges[rd.ri]
		if rd.rb < 0 || rd.rb > r.EndBlock {
			rd.rb, rd.rr = r.EndBlock, -1
		}
		db, err := c.decodeCached(rd.rb)
		if err != nil {
			rd.retreat(r)
			continue
		}
		if rd.rr < 0 {
			rd.rr = len(db.p.Records)
			if rd.rb == r.EndBlock && r.EndRec+1 < rd.rr {
				rd.rr = r.EndRec + 1
			}
		}
		first := 0
		if rd.rb == r.StartBlock {
			first = r.StartRec
		}
		for rd.rr > first {
			i := rd.rr - 1
			rd.rr--
			rec := db.p.Records[i]
			if rec.Continued || !c.matchRecord(&rec) {
				continue
			}
			e, aerr := c.s.entryAt(db, rd.rb, i, &c.eff)
			if aerr != nil {
				continue
			}
			return &e, nil
		}
		rd.retreat(r)
	}
	return nil, nil
}

// retreat steps a backward redirect walk to the previous block of the
// current range, or to the previous range.
func (rd *redirState) retreat(r *copyRange) {
	if rd.rb <= r.StartBlock {
		rd.ri--
		rd.rb, rd.rr = -1, -1
	} else {
		rd.rb--
		rd.rr = -1
	}
}

// retreatBlock moves the cursor to the previous candidate block and
// positions after its last record.
func (c *Cursor) retreatBlock() error {
	var prev int
	if c.ids == nil || c.linear {
		prev = c.block - 1
	} else {
		var err error
		if prev, err = c.s.locFindPrev(c.idSorted, c.block); err != nil {
			return err
		}
	}
	if prev < 0 {
		c.block, c.rec = -1, 0
		return nil
	}
	c.block = prev
	// When the previous block belongs to a compacted volume the cursor will
	// redirect through, skip the decode: it could hit the cold tier, and the
	// record position is irrelevant once the redirect walk takes over.
	if c.ids != nil && !c.linear {
		if view := c.s.compView(); view != nil {
			if v := view.volAt(prev); v != nil && v.covers(c.idSorted) {
				c.rec = 0
				return nil
			}
		}
	}
	if db, err := c.decodeCached(prev); err == nil {
		c.rec = len(db.p.Records)
	} else {
		c.rec = 0
	}
	return nil
}

// SeekTime positions the cursor so that the following Next returns the
// first matching entry whose effective timestamp is >= ts (and Prev returns
// the last matching entry before that point). The block is located with the
// entrymap-landmark timestamp search of §2.1.
func (c *Cursor) SeekTime(ts int64) error {
	c.s.opt.Clock.ChargeIPC(c.s.opt.RemoteIPC)
	c.s.opt.Clock.ChargeServerFixed()
	// The last block dated before ts; the subtraction saturates, so a ts at
	// the bottom of the range positions at the start rather than wrapping.
	b, err := c.s.locFindByTime(max(ts, math.MinInt64+1) - 1)
	if err != nil {
		return err
	}
	if b < 0 {
		c.block, c.rec = 0, 0
		return nil
	}
	// Scan forward from the located block for the first entry at/after ts,
	// leaving the gap just before it.
	c.block, c.rec = b, 0
	c.redir = nil
	for {
		pos := c.savePos()
		e, err := c.next()
		if err == io.EOF {
			return nil // gap at end: everything is before ts
		}
		if err != nil {
			return err
		}
		if e.Timestamp >= ts {
			c.restorePos(pos)
			return nil
		}
	}
}

// cursorPos captures a cursor's full position — gap plus any in-progress
// redirect walk — so a scan can rewind exactly one step.
type cursorPos struct {
	block, rec int
	redir      *redirState
}

func (c *Cursor) savePos() cursorPos {
	p := cursorPos{block: c.block, rec: c.rec}
	if c.redir != nil {
		rd := *c.redir
		p.redir = &rd
	}
	return p
}

func (c *Cursor) restorePos(p cursorPos) {
	c.block, c.rec, c.redir = p.block, p.rec, p.redir
}

// Position returns the cursor's gap position (global block, record index)
// for diagnostics and tests.
func (c *Cursor) Position() (block, rec int) { return c.block, c.rec }

// SeekPos restores a cursor to a previously observed gap position, so a
// client can persist (block, rec) and resume iteration later — e.g. a
// monitoring process that periodically drains new entries (§3's "audit and
// monitoring processes read hundreds of records ... periodically"). Passing
// the Block/Index of an Entry positions the gap *before* that entry;
// resume after it by passing Index+1. A position saved before a compaction
// pass may fall inside a since-compacted volume; iteration stays correct but
// restarts that volume's entries from its boundary (at-least-once delivery).
func (c *Cursor) SeekPos(block, rec int) error {
	if c.s.closedFlag.Load() {
		return ErrClosed
	}
	if block < 0 || rec < 0 {
		return fmt.Errorf("clio: invalid cursor position (%d, %d)", block, rec)
	}
	c.block, c.rec = block, rec
	c.redir = nil
	return nil
}

// LocateUnique finds an entry by the client-generated unique identifier of
// §2.1: a client that writes asynchronously tags entries with its own
// sequence number (inside the data) and remembers its own timestamp; the
// server timestamp of the entry then lies within the clock skew of the
// client's. The search seeks to clientTS−maxSkew and scans matching
// entries until clientTS+maxSkew, returning the first entry `match`
// accepts. As the paper notes, efficiency depends on clock synchronization
// quality, and correctness on the client's sequence number not wrapping
// within the skew window.
func (c *Cursor) LocateUnique(clientTS, maxSkew int64, match func(*Entry) bool) (*Entry, error) {
	if err := c.SeekTime(clientTS - maxSkew); err != nil {
		return nil, err
	}
	for {
		e, err := c.Next()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if e.Timestamp > clientTS+maxSkew {
			return nil, io.EOF
		}
		if match(e) {
			return e, nil
		}
	}
}

// ReadAt returns the single entry at the given (block, index) position, as
// previously reported in an Entry. It allows a client to retain a compact
// reference to an entry and fetch it later. Like cursors, it runs without
// the writer lock.
func (s *Service) ReadAt(block, index int) (*Entry, error) {
	e := new(Entry)
	if err := s.ReadAtInto(block, index, e); err != nil {
		return nil, err
	}
	return e, nil
}

// ReadAtInto is ReadAt into a caller-provided Entry, so a warm read of a
// sealed, unfragmented entry performs no allocation at all: the block's
// decode is reused from the cache entry it is attached to, and e.Data is a
// subslice of the cache-owned block image. The data must therefore be
// treated as read-only and copied if retained past the block's cache
// residency.
func (s *Service) ReadAtInto(block, index int, e *Entry) error {
	if m := s.met(); m != nil {
		defer m.readLat.ObserveSince(time.Now())
	}
	if s.closedFlag.Load() {
		return ErrClosed
	}
	db, err := s.decodeBlock(block)
	if err != nil {
		return fmt.Errorf("%w: block %d unreadable: %v", ErrLost, block, err)
	}
	*e, err = s.entryAt(db, block, index, nil)
	return err
}
