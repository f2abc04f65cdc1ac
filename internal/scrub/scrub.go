// Package scrub verifies the on-media invariants of a Clio volume sequence
// — an fsck for log stores. It walks every readable block and checks:
//
//  1. every block parses (magic, CRC, self-declared index) or is accounted
//     for as invalidated/damaged;
//  2. block first-entry timestamps are non-decreasing in write order
//     (DESIGN.md invariant 6);
//  3. the entrymap is redundant: every written entrymap entry's bitmaps
//     agree exactly with a linear scan of the blocks it covers (invariant
//     2 — "the information in an entrymap log file is redundant");
//  4. fragment chains are well-formed: every Continues record has its
//     continuation as the first same-id continued record of the next block
//     (invalidated blocks, which the writer slid past, aside), and no orphan
//     continuations exist;
//  5. the catalog replays cleanly and every entry's log-file id is known
//     to the catalog;
//  6. damaged blocks can optionally be invalidated on the medium (§2.3.2's
//     repair action), so future readers skip them cheaply.
//
// Scrubbing reads through the service's public surface plus a raw
// block-level view, and never writes unless Repair is set.
package scrub

import (
	"errors"
	"fmt"
	"sort"

	"clio/internal/blockfmt"
	"clio/internal/catalog"
	"clio/internal/entrymap"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// Options controls a scrub.
type Options struct {
	// Repair invalidates damaged blocks on the medium (§2.3.2). Without
	// it, scrub is read-only.
	Repair bool
}

// Problem is one detected inconsistency.
type Problem struct {
	// Block is the global data-block index, or -1 for volume-level issues.
	Block int
	// Kind is a stable short code (bad-block, ts-order, entrymap-mismatch,
	// torn-chain, orphan-fragment, unknown-id, catalog).
	Kind string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the problem for reports.
func (p Problem) String() string {
	if p.Block < 0 {
		return fmt.Sprintf("%s: %s", p.Kind, p.Detail)
	}
	return fmt.Sprintf("block %d: %s: %s", p.Block, p.Kind, p.Detail)
}

// Report is a scrub's outcome.
type Report struct {
	// Blocks is the number of data blocks in the written portion.
	Blocks int
	// Readable counts blocks that parsed.
	Readable int
	// Invalidated counts blocks already invalidated on the medium.
	Invalidated int
	// Damaged counts unreadable (garbage) blocks.
	Damaged int
	// Repaired counts damaged blocks invalidated by this scrub.
	Repaired int
	// Entries counts parsed records (fragments).
	Entries int
	// EntrymapEntries counts verified entrymap entries.
	EntrymapEntries int
	// CatalogRecords counts replayed catalog records.
	CatalogRecords int
	// Usage reports per-log-file space accounting (entries and client data
	// bytes), keyed by path — the admin view of §3.5's space analysis.
	Usage []LogUsage
	// OpenTailChains lists log-file ids whose final fragment chain runs off
	// the written end of the medium. This is informational, not a problem:
	// with an NVRAM tail (§2.3.1) the continuation is staged in rewriteable
	// storage and completes when the tail block seals; only if the NVRAM is
	// also lost does the chain become torn (and readers then skip it).
	OpenTailChains []uint16
	// Problems lists everything found.
	Problems []Problem
}

// LogUsage is one log file's space accounting.
type LogUsage struct {
	ID      uint16
	Path    string
	Entries int   // chain starts (whole entries)
	Bytes   int64 // client data bytes (including fragments)
}

// Clean reports whether no problems were found.
func (r *Report) Clean() bool { return len(r.Problems) == 0 }

func (r *Report) add(block int, kind, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{
		Block:  block,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Volumes scrubs a volume sequence given its mounted devices (any order).
func Volumes(devs []wodev.Device, opt Options) (*Report, error) {
	set, err := volume.MountSet(devs)
	if err != nil {
		return nil, err
	}
	if set == nil {
		return nil, fmt.Errorf("scrub: no written volumes among %d devices", len(devs))
	}
	end, err := set.GlobalEnd()
	if err != nil {
		return nil, err
	}
	s := &scrubber{set: set, opt: opt, report: &Report{Blocks: end}}
	if err := s.run(end); err != nil {
		return nil, err
	}
	return s.report, nil
}

type scrubber struct {
	set    *volume.Set
	opt    Options
	report *Report

	// blocks memoizes every block read: its decode, or why it has none.
	blocks map[int]readResult
}

// readResult is one memoized block read.
type readResult struct {
	p   *blockfmt.Parsed
	err error
}

// fetch reads and decodes global block g once, remembering the outcome. The
// read is a validated one: a damaged image is wodev.ErrCorrupt.
func (s *scrubber) fetch(g int) (*blockfmt.Parsed, error) {
	if r, ok := s.blocks[g]; ok {
		return r.p, r.err
	}
	p, err := s.set.ReadBlock(g)
	s.blocks[g] = readResult{p, err}
	return p, err
}

// block returns a block's decode, or nil when it has none.
func (s *scrubber) block(g int) *blockfmt.Parsed {
	p, _ := s.fetch(g)
	return p
}

func (s *scrubber) run(end int) error {
	s.blocks = make(map[int]readResult, end)
	r := s.report
	var rec blockfmt.RecordView

	// Pass 1: readability, timestamps, record accounting, catalog replay.
	cat := catalog.NewTable()
	var lastTS int64
	var emEntries []struct {
		block int
		e     *entrymap.Entry
	}
	for g := 0; g < end; g++ {
		p, err := s.fetch(g)
		switch {
		case err == nil:
		case errors.Is(err, volume.ErrOffline):
			r.add(g, "offline", "volume not mounted: %v", err)
			continue
		case errors.Is(err, wodev.ErrInvalidated):
			r.Invalidated++
			continue
		default:
			r.Damaged++
			r.add(g, "bad-block", "unreadable: %v", err)
			s.maybeRepair(g)
			continue
		}
		r.Readable++
		r.Entries += p.Len()
		if int(p.BlockIndex) != g {
			r.add(g, "bad-block", "footer says block %d", p.BlockIndex)
		}
		if p.Len() > 0 {
			if p.FirstTimestamp < lastTS {
				r.add(g, "ts-order", "first timestamp %d before predecessor's %d",
					p.FirstTimestamp, lastTS)
			}
			if p.FirstTimestamp > 0 {
				lastTS = p.FirstTimestamp
			}
		}
		for i := range p.Len() {
			if p.Record(i, &rec); rec.LogID != entrymap.EntrymapID || rec.Continued {
				continue
			}
			data, aerr := volume.Assemble(p, g, i, s.fetch)
			if aerr != nil {
				continue // chain problems reported by pass 3
			}
			e, derr := entrymap.Decode(data)
			if derr != nil {
				r.add(g, "entrymap-mismatch", "undecodable entrymap entry: %v", derr)
				continue
			}
			emEntries = append(emEntries, struct {
				block int
				e     *entrymap.Entry
			}{g, e})
		}
		for i := range p.Len() {
			if p.Record(i, &rec); rec.LogID != entrymap.CatalogID || rec.Continued {
				continue
			}
			data, aerr := volume.Assemble(p, g, i, s.fetch)
			if aerr != nil {
				continue
			}
			crec, derr := catalog.DecodeRecord(data)
			if derr != nil {
				r.add(g, "catalog", "undecodable catalog record: %v", derr)
				continue
			}
			if err := cat.Apply(crec); err != nil {
				r.add(g, "catalog", "replay: %v", err)
				continue
			}
			r.CatalogRecords++
		}
	}

	// Pass 2: every entry's id is known to the catalog, and the entrymap
	// entries' bitmaps match a linear scan.
	known := make(map[uint16]bool)
	for _, id := range cat.IDs() {
		known[id] = true
	}
	occurrences := make(map[uint16][]int) // tracked id -> blocks containing it
	for g := 0; g < end; g++ {
		p := s.block(g)
		if p == nil {
			continue
		}
		seen := map[uint16]bool{}
		note := func(id uint16) {
			if !known[id] {
				r.add(g, "unknown-id", "entry for id %d absent from catalog", id)
				known[id] = true // report once
			}
			if id == entrymap.VolumeSeqID || id == entrymap.EntrymapID || seen[id] {
				return
			}
			seen[id] = true
			occurrences[id] = append(occurrences[id], g)
		}
		for i := range p.Len() {
			p.Record(i, &rec)
			note(rec.LogID)
			for k := range rec.ExtraIDs.Len() {
				note(rec.ExtraIDs.At(k))
			}
		}
	}
	for _, em := range emEntries {
		s.checkEntrymap(em.block, em.e, occurrences, end)
		r.EntrymapEntries++
	}

	// Pass 3: fragment chains.
	s.checkChains(end)

	// Pass 4: per-log-file usage accounting.
	usage := map[uint16]*LogUsage{}
	for g := 0; g < end; g++ {
		p := s.block(g)
		if p == nil {
			continue
		}
		for i := range p.Len() {
			p.Record(i, &rec)
			for _, id := range rec.ExtraIDs.Append([]uint16{rec.LogID}) {
				u, ok := usage[id]
				if !ok {
					u = &LogUsage{ID: id}
					usage[id] = u
				}
				u.Bytes += int64(len(rec.Data))
				if !rec.Continued {
					u.Entries++
				}
			}
		}
	}
	ids := make([]int, 0, len(usage))
	for id := range usage {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		u := usage[uint16(id)]
		if path, err := cat.PathOf(uint16(id)); err == nil {
			u.Path = path
		} else {
			u.Path = fmt.Sprintf("#%d", id)
		}
		r.Usage = append(r.Usage, *u)
	}
	return nil
}

// checkEntrymap verifies one entrymap entry against ground truth. Entries
// covering spans with damaged blocks are only checked for the readable
// blocks (a damaged block's contributions are unknowable).
func (s *scrubber) checkEntrymap(atBlock int, e *entrymap.Entry, occ map[uint16][]int, end int) {
	span := 1
	for i := 0; i < e.Level; i++ {
		span *= e.N
	}
	lo := e.Boundary - span
	if lo < 0 {
		s.report.add(atBlock, "entrymap-mismatch", "level-%d entry at boundary %d covers negative span", e.Level, e.Boundary)
		return
	}
	child := span / e.N
	damagedInSpan := false
	for b := lo; b < e.Boundary && b < end; b++ {
		if s.block(b) == nil {
			damagedInSpan = true
			break
		}
	}
	// Ground truth bitmaps per id.
	truth := make(map[uint16]wire.Bitmap)
	for id, blocks := range occ {
		i := sort.SearchInts(blocks, lo)
		for ; i < len(blocks) && blocks[i] < e.Boundary; i++ {
			bm, ok := truth[id]
			if !ok {
				bm = wire.NewBitmap(e.N)
				truth[id] = bm
			}
			bm.Set((blocks[i] - lo) / child)
		}
	}
	// Every declared bitmap must be a superset of the readable truth and,
	// with no damage in the span, exactly equal.
	declared := map[uint16]bool{}
	for _, m := range e.Maps {
		declared[m.ID] = true
		want := truth[m.ID]
		for g := 0; g < e.N; g++ {
			wantBit := want != nil && want.Get(g)
			gotBit := m.Bits.Get(g)
			if wantBit && !gotBit {
				s.report.add(atBlock, "entrymap-mismatch",
					"level-%d@%d: id %d group %d has entries but bit clear", e.Level, e.Boundary, m.ID, g)
			}
			if gotBit && !wantBit && !damagedInSpan {
				s.report.add(atBlock, "entrymap-mismatch",
					"level-%d@%d: id %d group %d bit set but no entries", e.Level, e.Boundary, m.ID, g)
			}
		}
	}
	if !damagedInSpan {
		for id, bm := range truth {
			if !bm.Empty() && !declared[id] {
				s.report.add(atBlock, "entrymap-mismatch",
					"level-%d@%d: id %d present in span but missing from entry", e.Level, e.Boundary, id)
			}
		}
	}
}

// checkChains verifies fragment-chain structure block by block.
func (s *scrubber) checkChains(end int) {
	var rec blockfmt.RecordView
	// A continuation is legal at the start of block b only if some record
	// in a previous readable block continues into it, and only as the
	// fragment that chain expects next.
	expect := map[uint16]int{} // open chain entering the next block -> its next fragment
	for g := 0; g < end; g++ {
		p, err := s.fetch(g)
		if errors.Is(err, wodev.ErrInvalidated) {
			// Open chains carry on past an invalidated block, exactly as
			// volume.Assemble reads them: the writer may have slid its
			// staged contents past it (§2.3.2). A fragment invalidated after
			// it was written shows in the next one's number.
			continue
		}
		if err != nil {
			// Damaged or unreadable block: any open chains die here;
			// continuations after it are necessarily orphans but not
			// re-reported.
			expect = map[uint16]int{}
			continue
		}
		seenCont := map[uint16]bool{}
		for i := range p.Len() {
			p.Record(i, &rec)
			if !rec.Continued {
				continue
			}
			k, open := expect[rec.LogID]
			switch {
			case !open || seenCont[rec.LogID]:
				s.report.add(g, "orphan-fragment",
					"continuation for id %d with no open chain", rec.LogID)
				k = int(p.Flags >> 4) // follow the chain from the fragment found
			case !volume.InSequence(p, k):
				s.report.add(g, "torn-chain",
					"id %d chain expects fragment %d here, the block holds fragment %d: one was lost",
					rec.LogID, k, p.Flags>>4)
				k = int(p.Flags >> 4)
			}
			seenCont[rec.LogID] = true
			if rec.Continues {
				expect[rec.LogID] = k + 1
			} else {
				delete(expect, rec.LogID)
			}
		}
		// Chains that expected a continuation here but found none are torn.
		for id := range expect {
			if !seenCont[id] {
				s.report.add(g, "torn-chain", "id %d chain has no continuation", id)
				delete(expect, id)
			}
		}
		// Open new chains.
		for i := range p.Len() {
			if p.Record(i, &rec); rec.Continues && !rec.Continued {
				expect[rec.LogID] = 1
			}
		}
	}
	for id := range expect {
		s.report.OpenTailChains = append(s.report.OpenTailChains, id)
	}
}

// maybeRepair invalidates a damaged block when Repair is set.
func (s *scrubber) maybeRepair(g int) {
	if !s.opt.Repair {
		return
	}
	v, local, err := s.set.Locate(g)
	if err != nil {
		return
	}
	if err := v.Dev.Invalidate(v.DeviceBlock(local)); err == nil {
		s.report.Repaired++
	}
}
