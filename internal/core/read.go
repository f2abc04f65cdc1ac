package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"clio/internal/blockfmt"
	"clio/internal/entrymap"
	"clio/internal/volume"
	"clio/internal/wire"
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
	var e Entry
	err := decodeEntry(p, block, idx, nil, fetch, nil, &e)
	return e, err
}

// decodeEntry is DecodeEntry into e, taking the entry's timestamp from eff,
// which may be nil. Every field of e is set, so a cursor decodes each entry
// into the same scratch Entry; on failure e is left as it was. A fragmented
// entry's data is joined in *frag's storage when frag is not nil, and *frag
// keeps what it grew to; otherwise in an allocation of its own.
func decodeEntry(p *blockfmt.Parsed, block, idx int, eff *effMemo, fetch func(global int) (*blockfmt.Parsed, error), frag *[]byte, e *Entry) error {
	if idx < 0 || idx >= len(p.Records) {
		return fmt.Errorf("clio: no record %d in block %d", idx, block)
	}
	r := &p.Records[idx]
	if r.Continued {
		return fmt.Errorf("clio: record %d of block %d is a continuation fragment", idx, block)
	}
	var dst []byte
	if frag != nil {
		dst = *frag
	}
	data, err := volume.AssembleInto(dst, p, block, idx, fetch)
	if err != nil {
		return ErrLost
	}
	if frag != nil && r.Continues {
		*frag = data
	}
	e.LogID = r.LogID
	e.Timestamp = eff.at(p, idx)
	e.Timestamped = r.Form != blockfmt.FormMinimal
	e.Forced = r.AttrFlags&blockfmt.AttrForced != 0
	e.Data = data
	e.Block, e.Index = block, idx
	e.ExtraIDs = r.ExtraIDs
	e.Shard = 0
	return nil
}

// entryInto is DecodeEntry over the service's own read path, into e. A
// cursor passes its memo as eff; a one-off read passes nil. The entry's data
// is the caller's to keep.
func (s *Service) entryInto(db *decodedBlock, block, idx int, eff *effMemo, e *Entry) error {
	return decodeEntry(db.p, block, idx, eff, s.chainBlock, nil, e)
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
	root uint16 // the log file opened
	// ids is the cursor's id set, consulted once per record; nil means
	// every entry (the volume sequence log).
	ids *idSet
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
	// run is the written level-1 span the last block step's search answered
	// from (entrymap.Run): the blocks after c.block in it that hold entries
	// of the set are its set bits, so the steps through the span search
	// nothing. It is built with the id set of generation gen and dropped
	// when the set is rebuilt or the cursor is repositioned.
	run entrymap.Run
	eff effMemo
	// ent is the scratch entry the forward loop decodes each entry into
	// and hands to its visitor; frag is where it joins the data of an entry
	// whose fragments cross blocks.
	ent  Entry
	frag []byte

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

// idSet is a set of log ids: a bitmap over the 12-bit id space, a fixed
// array so that a lookup needs no bounds check past the id's own.
type idSet [(wire.MaxLogID + 1) / 64]uint64

func (ids *idSet) has(id uint16) bool {
	return id <= wire.MaxLogID && ids[id/64]&(1<<(id%64)) != 0
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
	c.run = entrymap.Run{}
	if c.ids == nil {
		c.ids = new(idSet)
	} else {
		*c.ids = idSet{}
	}
	for _, d := range ids {
		if d > wire.MaxLogID {
			return fmt.Errorf("clio: log id %d outside the 12-bit id space", d)
		}
		c.ids[d/64] |= 1 << (d % 64)
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
	return c.ids == nil || c.ids.has(id)
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
	c.run = entrymap.Run{}
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
	c.run = entrymap.Run{}
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
// advances past it. It returns io.EOF at the end of the log. It is the
// one-entry case of NextEach, and the returned entry is the caller's.
func (c *Cursor) Next() (*Entry, error) {
	var out Entry
	if n, err := c.NextEach(1, func(e *Entry) bool { out = *e; return true }); n == 0 {
		return nil, err
	}
	c.Own(&out)
	return &out, nil
}

// Own makes e, an entry this cursor's NextEach visited, the caller's to keep
// across the cursor's later calls: the data of an entry whose fragments
// cross blocks, which the loop joins in the cursor's scratch, is copied out;
// any other entry's data is a view of an immutable block image and stays
// as it is.
func (c *Cursor) Own(e *Entry) {
	if len(e.Data) > 0 && len(c.frag) > 0 && &e.Data[0] == &c.frag[0] {
		e.Data = bytes.Clone(e.Data)
	}
}

// NextEach is the cursor's one forward loop. It visits the matching entries
// after the cursor position in order, advancing past each, and stops once it
// has visited max of them (at least one), once visit returns false, or where
// the log ends (io.EOF) or fails. It returns how many entries it visited,
// with nil when it stopped at max or because visit declined and io.EOF or
// the error otherwise: a call that visited entries may still report the end.
//
// The loop walks the records of each decoded block in place and decodes
// each matching entry into one scratch Entry that it reuses: visit must not
// keep the pointer past its return. What an unfragmented entry points to —
// Data and ExtraIDs, slices of the immutable block image — may be kept, as
// Next's may. The Data of an entry whose fragments cross blocks is joined in
// the cursor's scratch, which the next fragmented entry the cursor reads
// forward overwrites: a visitor that keeps an entry past that calls Own.
//
// Between blocks, the loop steps through the set bits of the written
// level-1 span its last search answered from (advanceBlock), so a scan
// searches the entrymap once per span of blocks, not once per block.
//
// Stats.CursorSteps counts the call as if each entry, and the step that
// finds none, were its own Next: 1 + n, less the last entry when the call
// stopped on it. The read-latency histogram takes one sample per call, a
// single step or a whole batch.
func (c *Cursor) NextEach(max int, visit func(*Entry) bool) (int, error) {
	if m := c.s.met(); m != nil {
		defer m.readLat.ObserveSince(time.Now())
	}
	f := visits{max: max, visit: visit}
	err := c.each(&f)
	steps := 1 + f.n
	if f.done {
		steps--
	}
	c.s.cursorSteps.Add(int64(steps))
	return f.n, err
}

// visits is the state of one run of the forward loop.
type visits struct {
	max   int
	n     int // entries visited
	visit func(*Entry) bool
	done  bool // max reached or visit declined
}

// each runs the forward loop for f. The catalog generation is re-checked
// each time the loop takes a block, after decoding it: a sublog created
// before the decode has its entries in the image matched, and one created
// later has none in it (a decoded block never gains records; the staged
// tail is decoded afresh each time it is taken).
func (c *Cursor) each(f *visits) error {
	s := c.s
	if s.closedFlag.Load() {
		return ErrClosed
	}
	f.max = max(f.max, 1)
	for {
		sn := s.snap()
		end := sn.end() // pipelined seals included: readable, tail or not
		if c.redir != nil {
			if err := c.redirEach(f); err != nil || f.done {
				return err
			}
			// Copies exhausted: resume the sweep just past the volume.
			c.block, c.rec = c.redir.v.end(), 0
			c.redir = nil
			continue
		}
		if c.block >= end {
			return io.EOF
		}
		if c.enterRedirect(c.block, false) {
			continue
		}
		db, err := c.decodeCached(c.block)
		if err != nil {
			// Damaged or invalidated block: its entries are lost (§2.3.2);
			// skip to the next candidate block.
			if err := c.advanceBlock(end, sn.tailGlobal); err != nil {
				return err
			}
			continue
		}
		if err := c.refreshIDs(); err != nil {
			return err
		}
		// The first block the writer may still be filling: a fragment
		// chain that breaks there is being appended, not lost.
		edge := sn.tailGlobal
		if edge < 0 {
			edge = sn.end()
		}
		if err := c.visitRecords(f, db, c.block, &c.rec, len(db.p.Records)-1, edge); err != nil || f.done {
			return err
		}
		if c.block == sn.tailGlobal {
			// The staged tail block can still grow: stay parked on it with
			// c.rec at the scanned count, so entries appended later to this
			// same block are seen by the next call.
			return io.EOF
		}
		if err := c.advanceBlock(end, sn.tailGlobal); err != nil {
			return err
		}
	}
}

// visitRecords is the loop's inner walk over records *rec..last of block b,
// in place: it advances *rec past each record it examines, decodes every
// matching entry into the scratch entry and visits it. The sweep (edge >= 0)
// skips relocated copies, which are served only through redirection, so an
// entry whose original volume the cursor reads directly is never delivered
// twice; and it leaves *rec on an entry whose fragment chain breaks at or
// past edge, answering io.EOF: the writer publishes each block of a
// fragmented entry as it fills, before the next fragment exists. A redirect
// walk (edge < 0) reads committed copies only.
func (c *Cursor) visitRecords(f *visits, db *decodedBlock, b int, rec *int, last, edge int) error {
	recs := db.p.Records
	for *rec <= last {
		i := *rec
		r := &recs[i]
		if r.Continued || !c.matchRecord(r) ||
			edge >= 0 && c.ids != nil && r.AttrFlags&blockfmt.AttrRelocated != 0 {
			*rec = i + 1
			continue
		}
		if err := decodeEntry(db.p, b, i, &c.eff, c.s.chainBlock, &c.frag, &c.ent); err != nil {
			if edge >= 0 && c.chainOpen(db, b, i, edge) {
				return io.EOF
			}
			*rec = i + 1
			continue // torn chain: skip the lost entry
		}
		*rec = i + 1
		f.n++
		if !f.visit(&c.ent) || f.n >= f.max {
			f.done = true
			return nil
		}
	}
	return nil
}

// chainOpen reports whether the fragment chain of record idx of block b,
// which did not assemble, breaks at or past edge — or assembles now. Either
// way the entry is still being appended, not lost.
func (c *Cursor) chainOpen(db *decodedBlock, b, idx, edge int) bool {
	brk := b
	_, err := volume.Assemble(db.p, b, idx, func(g int) (*blockfmt.Parsed, error) {
		brk = g
		return c.s.chainBlock(g)
	})
	return err == nil || brk >= edge
}

// redirEach runs the forward loop over the redirected volume's copy
// ranges; it returns with f.done unset when they are exhausted.
func (c *Cursor) redirEach(f *visits) error {
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
		if err := c.visitRecords(f, db, rd.rb, &rd.rr, last, -1); err != nil || f.done {
			return err
		}
		rd.advance(r)
	}
	return nil
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
// Within the written level-1 span of its last search (c.run) the span's
// bitmap answers; past it, or once a log file was created, it searches
// again. When nothing lies ahead, the cursor parks on the staged tail block
// (it can still grow) rather than past it.
func (c *Cursor) advanceBlock(end, tail int) error {
	if c.ids == nil || c.linear {
		c.block++
		c.rec = 0
		return nil
	}
	from := c.block + 1
	if c.run.Covers(from) && c.s.cat.Generation() == c.gen {
		if next := c.run.Next(from); next >= 0 {
			c.block, c.rec = next, 0
			return nil
		}
		from = c.run.End
	}
	next, run, err := c.s.locFindNext(c.idSorted, from)
	if err != nil {
		return err
	}
	if c.s.cat.Generation() != c.gen {
		// A log file was created while the search ran: blocks it passed
		// over may hold the new sublog's first entries. Search again with
		// the new set.
		if err := c.buildIDs(); err != nil {
			return err
		}
		return c.advanceBlock(end, tail)
	}
	c.run = run
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
	c.s.cursorSteps.Add(1)
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
	c.run = entrymap.Run{}
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
			e := new(Entry)
			if aerr := s.entryInto(db, c.block, i, &c.eff, e); aerr != nil {
				continue
			}
			return e, nil
		}
		if err := c.retreatBlock(); err != nil {
			return nil, err
		}
	}
}

// redirPrev is redirEach in reverse: the last not-yet-returned matching copy
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
			e := new(Entry)
			if aerr := c.s.entryInto(db, rd.rb, i, &c.eff, e); aerr != nil {
				continue
			}
			return e, nil
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
	c.s.cursorSteps.Add(1)
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
	// leaving the cursor where it stood after the entry before it.
	c.block, c.rec = b, 0
	c.redir = nil
	c.run = entrymap.Run{}
	pos := c.savePos()
	found := false
	f := visits{max: math.MaxInt, visit: func(e *Entry) bool {
		if found = e.Timestamp >= ts; !found {
			pos = c.savePos()
		}
		return !found
	}}
	if err := c.each(&f); found {
		c.restorePos(pos)
	} else if err != io.EOF {
		return err
	}
	return nil // at EOF the gap is at the end: everything is before ts
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
	c.run = entrymap.Run{}
	return nil
}

// ReadAt returns the single entry at the given (block, index) position, as
// previously reported in an Entry. It allows a client to retain a compact
// reference to an entry and fetch it later. Like cursors, it runs without
// the writer lock.
func (s *Service) ReadAt(block, index int) (*Entry, error) {
	e := new(Entry)
	if err := s.readAtInto(block, index, e); err != nil {
		return nil, err
	}
	return e, nil
}

// readAtInto is ReadAt into a caller-provided Entry, so a warm read of a
// sealed, unfragmented entry performs no allocation at all: the block's
// decode is reused from the cache entry it is attached to, and e.Data is a
// subslice of the cache-owned block image. The data must therefore be
// treated as read-only and copied if retained past the block's cache
// residency.
func (s *Service) readAtInto(block, index int, e *Entry) error {
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
	return s.entryInto(db, block, index, nil, e)
}
