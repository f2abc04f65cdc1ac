package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"clio/internal/archive"
	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/entrymap"
	"clio/internal/volume"
	"clio/internal/wire"
)

// locatorSource adapts the service's block storage to the entrymap locator's
// Source and RecoverSource interfaces. All methods read through the shared
// (lock-free) block path, so the locator can run without the writer lock;
// the accumulator is consulted under idxMu. Nothing here is per-search
// state, so any number of searches (each on its own Locator) share it.
type locatorSource Service

func (ls *locatorSource) svc() *Service { return (*Service)(ls) }

// End implements entrymap.Source.
func (ls *locatorSource) End() int { return ls.svc().endShared() }

// ViewAt implements entrymap.Source and entrymap.RecoverSource: it reads
// the entrymap entry nominally due at the given boundary, scanning forward
// up to the displacement limit when the boundary block is unreadable or the
// entry was displaced by a fragment chain or a damaged block (§2.3.2).
// Entrymap entries are self-identifying (level, boundary), so the scan
// cannot mistake a neighbouring boundary's entry for the requested one.
// ok=false ("no information") makes the locator search conservatively,
// which keeps a race with the writer's boundary roll-up merely slower, never
// wrong.
//
// On a cache-resident sealed block the probe allocates nothing and decodes
// nothing: the views were made when the block was (decodedBlock.emap) and
// alias its cached image. A parent-log cursor's search reads each entry once
// per block step and ORs its member ids' bitmaps in one walk (View.Union).
func (ls *locatorSource) ViewAt(level, boundary int) (entrymap.View, bool, error) {
	s := ls.svc()
	end := s.endShared()
	limit := boundary + s.opt.Degree // the displacement limit is the degree N
	for b := boundary; b <= limit && b < end; b++ {
		db, err := s.decodeBlock(b)
		if err != nil {
			continue // unreadable: keep scanning forward
		}
		if b > boundary && db.p.Flags&blockfmt.FlagEntrymapBoundary == 0 {
			// Displaced entries always land in flagged blocks; skip the
			// unflagged block but keep scanning (a long fragment chain can
			// push the displaced entry several blocks past its boundary).
			continue
		}
		for _, sl := range db.entrymaps() {
			v := sl.v
			if sl.fragmented {
				data, aerr := s.assemble(b, sl.rec, &db.p)
				if aerr != nil {
					continue
				}
				if v, aerr = entrymap.DecodeView(data); aerr != nil {
					continue
				}
			}
			if v.Level == level && v.Boundary == boundary {
				return v, true, nil
			}
		}
	}
	return entrymap.View{}, false, nil
}

// Pending implements entrymap.Source: the union over ids of the
// accumulator's in-progress bitmaps, widened with the staged tail block's and
// the pipelined seals' contents (readable, but not yet noted in the
// accumulator — that happens at seal). The accumulator rolls a span up when
// the writer starts the boundary block, a whole append before that block and
// the entrymap entries in it become readable; a search that still takes the
// completed span for the one in progress is told so (known=false) rather than
// handed the next span's bitmap. One probe takes the snapshot and idxMu once,
// whatever the size of the set.
func (ls *locatorSource) Pending(level, spanStart int, ids []uint16) (bm [entrymap.MaxDegree / 8]byte, known bool) {
	s := ls.svc()
	n := s.opt.Degree
	span := n
	for i := 1; i < level; i++ {
		span *= n
	}
	// Snapshot first, accumulator second: the writer notes a sealed block in
	// the accumulator before it publishes the snapshot that stops listing
	// the block as tail or pipelined, so in this order a block is always
	// seen in at least one of the two.
	sn := s.snap()
	s.idxMu.Lock()
	if s.lastBound/span*span != spanStart {
		s.idxMu.Unlock()
		return bm, false
	}
	// The accumulator mutates its bitmaps in place (NoteBlock, under idxMu):
	// they are ORed into the returned copy before the lock is let go.
	for _, id := range ids {
		live, _ := s.acc.Pending(level, id)
		for i, b := range live {
			bm[i] |= b
		}
	}
	s.idxMu.Unlock()
	if level == 1 {
		// Pipelined seals are readable but, like the tail, not yet noted in
		// the accumulator (that happens when their device write completes).
		for i := range sn.pipe {
			if g := sn.pipe[i].global; g >= spanStart && g < spanStart+n && anyOf(sn.pipe[i].ids, ids) {
				wire.Bitmap(bm[:]).Set(g % n)
			}
		}
		if g := sn.tailGlobal; g >= spanStart && g < spanStart+n && anyOf(sn.tailIDs, ids) {
			wire.Bitmap(bm[:]).Set(g % n)
		}
	}
	return bm, true
}

// anyOf reports whether a block's id list holds any of ids (sorted).
func anyOf(present, ids []uint16) bool {
	for _, id := range present {
		if _, ok := slices.BinarySearch(ids, id); ok {
			return true
		}
	}
	return false
}

// BlockContains implements entrymap.Source. Fragments count: the entrymap
// marks every block holding any part of an entry.
func (ls *locatorSource) BlockContains(block int, ids []uint16) (bool, error) {
	parsed, err := ls.svc().parseBlock(block)
	if err != nil {
		return false, nil // unreadable blocks contribute nothing
	}
	var rec blockfmt.RecordView
	for i := range parsed.Len() {
		parsed.Record(i, &rec)
		if _, ok := slices.BinarySearch(ids, rec.LogID); ok {
			return true, nil
		}
		for k := range rec.ExtraIDs.Len() {
			if _, ok := slices.BinarySearch(ids, rec.ExtraIDs.At(k)); ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// BlockFirstTS implements entrymap.Source. A sealed block is read for its
// date only until the cache's date table holds it: the first probe takes
// the footer timestamp off the raw image, verified as Parse would verify it
// (size, magic, version, checksum), and notes it in the table, which keeps
// it after the image is evicted; later probes read the table, charging
// nothing and reading no image. That skips no check: the date came from a
// verified image, and a block below the sealed end is device-durable and
// never renumbered, so its date never changes. The staged tail and
// pipelined seals are read every time and never noted — a slide renumbers
// them. A probe decodes nothing; a block is decoded by a reader that wants
// its records. A damaged block, or a tail the writer has started and not yet
// put an entry in, has no first timestamp: it dates nothing and the search
// stays below it.
func (ls *locatorSource) BlockFirstTS(block int) (int64, bool, error) {
	s := ls.svc()
	key := cache.Key{Block: block}
	bc := s.blockCache()
	sealed := block < s.snap().sealedEnd // sampled before the read
	if sealed {
		if ts, ok := bc.Date(key); ok {
			return ts, true, nil
		}
	}
	img, err := s.readBlock(block)
	if err != nil {
		return 0, false, nil
	}
	ts, ok, err := blockfmt.FirstTimestamp(img)
	if !ok || err != nil {
		return 0, false, nil
	}
	if sealed {
		bc.NoteDate(key, ts)
	}
	return ts, true, nil
}

// BlockIDs implements entrymap.RecoverSource.
func (ls *locatorSource) BlockIDs(block int) ([]uint16, error) {
	parsed, err := ls.svc().parseBlock(block)
	if err != nil {
		return nil, nil // lost block: its entrymap info is simply absent
	}
	seen := make(map[uint16]bool)
	var out []uint16
	note := func(id uint16) {
		if id == entrymap.VolumeSeqID || id == entrymap.EntrymapID || seen[id] {
			return
		}
		seen[id] = true
		out = append(out, id)
	}
	var rec blockfmt.RecordView
	for i := range parsed.Len() {
		parsed.Record(i, &rec)
		note(rec.LogID)
		for k := range rec.ExtraIDs.Len() {
			note(rec.ExtraIDs.At(k))
		}
	}
	return out, nil
}

// unsealed returns the snapshot's image of a block that is readable but not
// yet device-durable — the staged tail or a pipelined seal — or nil.
func (sn *tailSnap) unsealed(global int) []byte {
	if global == sn.tailGlobal {
		return sn.image()
	}
	for i := range sn.pipe {
		if sn.pipe[i].global == global {
			return sn.pipe[i].img
		}
	}
	return nil
}

// readBlock returns the raw image of a global data block. It is safe
// without the writer lock: the staged tail and pipelined seals are served
// from the published snapshot, sealed blocks are immutable, and cache,
// volume set and devices synchronize internally. Unreadable conditions
// (unwritten, invalidated, offline, damaged) surface as errors.
func (s *Service) readBlock(global int) ([]byte, error) {
	sn := s.snap()
	if global >= sn.sealedEnd {
		return s.readUnsealed(sn, global)
	}
	if img := s.blockCache().Lookup(cache.Key{Block: global}); img != nil {
		s.blocksInterpreted.Add(1)
		return img, nil
	}
	return s.readBlockMiss(sn, global)
}

// readUnsealed serves a block at or above the snapshot's sealed end: the
// staged tail or a pipelined seal from the snapshot itself, which is the
// only place their images live until their device writes complete. Any
// other block there is read from the device and not cached.
func (s *Service) readUnsealed(sn *tailSnap, global int) ([]byte, error) {
	if img := sn.unsealed(global); img != nil {
		s.blocksInterpreted.Add(1)
		return img, nil
	}
	return s.readBlockMiss(sn, global)
}

// readBlockMiss reads a block from the device after a cache miss. A block
// below the snapshot's sealed end is device-durable: its buffer is handed
// to the cache (which owns it from then on) and returned as is, so the
// caller holds the cache's own image and decodeBlock's Attach of it
// succeeds — a missed block is read into one allocation and parsed once.
// One at or above it (a block the snapshot does not list: a ReadAt past the
// end, say) is returned uncached, since the cache holds device-durable
// images alone.
func (s *Service) readBlockMiss(sn *tailSnap, global int) ([]byte, error) {
	v, local, err := s.set.Locate(global)
	if err != nil {
		if errors.Is(err, volume.ErrOffline) {
			return s.readColdBlock(global)
		}
		return nil, err
	}
	buf := make([]byte, s.opt.BlockSize)
	s.deviceReads.Add(1)
	devIdx := v.DeviceBlock(local)
	if err := s.readDeviceBlock(v, devIdx, buf); err != nil {
		return nil, err
	}
	if global < sn.sealedEnd {
		s.blockCache().Put(cache.Key{Block: global}, buf)
	}
	s.blocksInterpreted.Add(1)
	return buf, nil
}

// readColdBlock serves a block of a demoted volume from the cold backend at
// archival latency, populating the block cache so a re-read of recently
// touched cold data is a hot cache hit. Blocks of volumes that are merely
// offline (unmounted, not demoted) stay unreadable.
func (s *Service) readColdBlock(global int) ([]byte, error) {
	view := s.compView()
	if view == nil {
		return nil, fmt.Errorf("clio: block %d: %w", global, volume.ErrOffline)
	}
	v := view.demotedAt(global)
	if v == nil {
		return nil, fmt.Errorf("clio: block %d: %w", global, volume.ErrOffline)
	}
	buf := make([]byte, s.opt.BlockSize)
	devBlock := (global - v.Start) + 1 // past the volume header
	if err := archive.ReadVolumeBlock(context.Background(), s.opt.Cold.Backend, v.Index, devBlock, buf); err != nil {
		return nil, err
	}
	s.coldFetches.Add(1)
	// The backend vouches for length only. A damaged image must not enter
	// the cache, where every reader would be handed it until eviction: it
	// is returned uncached, so the next read asks the backend again. A valid
	// one is handed to the cache, which owns it from then on.
	if !blockfmt.Validate(buf) {
		return nil, fmt.Errorf("clio: cold block %d: %w", global, blockfmt.ErrBadChecksum)
	}
	s.blockCache().Put(cache.Key{Block: global}, buf)
	return buf, nil
}

// decodedBlock is one block's interpreted form: its parse — the image, the
// footer's fields and a pointer-free index of 2 bytes a record — plus the
// views of its entrymap entries. For device-durable (hence immutable) blocks
// it is attached to the block's cache entry, so a warm read decodes each
// block once and every Entry.Data handed out is a subslice of the
// cache-owned image — the zero-copy read path. Beyond its image, a cached
// data block's decode costs this struct (80 bytes as allocated) and its
// record index; TestZeroCopyDecodeFootprint holds it to that.
type decodedBlock struct {
	p blockfmt.Parsed
	// emap is nil for all but the few blocks entrymap entries land in: a
	// pointer, so that the others pay one word for it, not a slice header.
	emap *[]entrymapSlot
}

// entrymaps returns the block's entrymap slots.
func (db *decodedBlock) entrymaps() []entrymapSlot {
	if db.emap == nil {
		return nil
	}
	return *db.emap
}

// entrymapSlot is one entrymap record of a decoded block, in record order.
type entrymapSlot struct {
	rec int // index of the record (a first fragment) in the block
	// fragmented records continue into following blocks: the locator
	// reassembles them on every probe, because each chain block read is an
	// operation the cost model counts.
	fragmented bool
	v          entrymap.View // aliases the block image; unset when fragmented
}

// entrymapSlots lists the block's decodable entrymap entries, or is nil
// when it has none. The list is sized to the entrymap records counted first,
// so a block with some costs two allocations for them, list and handle, and
// one without costs none.
func entrymapSlots(p *blockfmt.Parsed) *[]entrymapSlot {
	var rec blockfmt.RecordView
	n := 0
	for i := range p.Len() {
		if p.Record(i, &rec); rec.LogID == entrymap.EntrymapID && !rec.Continued {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	slots := make([]entrymapSlot, 0, n)
	for i := range p.Len() {
		p.Record(i, &rec)
		if rec.LogID != entrymap.EntrymapID || rec.Continued {
			continue
		}
		if rec.Continues {
			slots = append(slots, entrymapSlot{rec: i, fragmented: true})
		} else if v, err := entrymap.DecodeView(rec.Data); err == nil {
			slots = append(slots, entrymapSlot{rec: i, v: v})
		}
	}
	return &slots
}

// decodeBlock returns the decoded form of a global data block, reusing a
// decode attached to the block's cache entry when present (lock-free, see
// readBlock).
func (s *Service) decodeBlock(global int) (*decodedBlock, error) {
	sn := s.snap()
	if global >= sn.sealedEnd {
		img, err := s.readUnsealed(sn, global)
		if err != nil {
			return nil, err
		}
		return decode(img)
	}
	key := cache.Key{Block: global}
	bc := s.blockCache()
	img, dec := bc.LookupDecoded(key)
	if img != nil {
		s.blocksInterpreted.Add(1)
		if db, ok := dec.(*decodedBlock); ok {
			return db, nil
		}
	} else {
		var err error
		if img, err = s.readBlockMiss(sn, global); err != nil {
			return nil, err
		}
	}
	db, err := decode(img)
	if err != nil {
		return nil, err
	}
	// The cache holds sealed, device-durable images only, which never
	// change: their decode is safe for the entry's whole lifetime.
	bc.Attach(key, img, db)
	return db, nil
}

// decode parses a block image and finds its entrymap entries.
func decode(img []byte) (*decodedBlock, error) {
	p, err := blockfmt.Parse(img)
	if err != nil {
		return nil, err
	}
	db := &decodedBlock{p: p}
	db.emap = entrymapSlots(&db.p)
	return db, nil
}

// parseBlock reads and decodes a global data block (lock-free, see
// readBlock).
func (s *Service) parseBlock(global int) (*blockfmt.Parsed, error) {
	db, err := s.decodeBlock(global)
	if err != nil {
		return nil, err
	}
	return &db.p, nil
}

// assemble returns the full data of the entry whose first fragment is
// record idx of block `global` (already parsed as `parsed`), following its
// fragment chain by the format's one rule (volume.Assemble). A chain that
// cannot be completed is a lost entry: ErrLost.
func (s *Service) assemble(global, idx int, parsed *blockfmt.Parsed) ([]byte, error) {
	data, err := volume.Assemble(parsed, global, idx, s.chainBlock)
	if err != nil {
		return nil, ErrLost
	}
	return data, nil
}

// chainBlock is the service's block fetch for fragment chains: the shared
// read path (cache, published tail and pipeline, cold tier), bounded by the
// readable end so a chain torn by a writer crash is lost without a device
// probe.
func (s *Service) chainBlock(global int) (*blockfmt.Parsed, error) {
	if global >= s.endShared() {
		return nil, volume.ErrOutOfRange
	}
	return s.parseBlock(global)
}
