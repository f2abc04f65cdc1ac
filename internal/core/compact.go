package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"clio/internal/archive"
	"clio/internal/blockfmt"
	"clio/internal/entrymap"
	"clio/internal/volume"
	"clio/internal/wire"
)

// The incremental compactor: reclaims the space of old sealed volumes whose
// content is mostly dead (entries of retired log files, superseded relocated
// copies, padding) by copying the remaining live entries forward and
// demoting the whole volume to the cold tier.
//
// Per volume, oldest first, CompactOnce runs this protocol:
//
//  1. COLLECT (lock-free): scan the volume's blocks; an entry is live when
//     it is a committed copy or an ordinary record, and at least one of its
//     member log files is a client log whose catalog descriptor is not
//     retired. Orphan copies — AttrRelocated records outside every
//     committed range — are dead by definition and never collected.
//  2. RELOCATE (one s.mu hold): re-append every live entry at the tail with
//     its original record timestamp plus AttrRelocated, append a ".compact"
//     marker entry, and force the batch durable. The single lock hold makes
//     the batch atomic with respect to concurrent appends.
//  3. COMMIT: record the volume (its relocated ids and the copies'
//     positions) in the sidecar and save it. The sidecar save is the commit
//     point: before it, the copies are invisible orphans and the originals
//     remain canonical; after it, cursors serve the copies and skip the
//     originals.
//  4. DEMOTE: archive the volume's full device image to the cold backend
//     (idempotent), mark it demoted in the sidecar, remove the device from
//     the mounted set and release the local media. Reads of the volume's
//     blocks now go through the cold backend at archival latency.
//
// A crash anywhere in the protocol is safe: pre-commit, the orphan copies
// are permanently invisible and a rerun re-copies from the intact
// originals; post-commit, a rerun resumes at the demotion step, which is
// idempotent end to end.

// CompactOptions bounds one CompactOnce pass.
type CompactOptions struct {
	// MaxLiveFraction caps the fraction of a volume's written blocks that
	// may hold live entries for the volume to be worth compacting; denser
	// volumes are left hot. Defaults to 0.5.
	MaxLiveFraction float64
	// MinHotVolumes is the minimum number of volumes kept mounted; the
	// active volume counts. Defaults to 2.
	MinHotVolumes int
	// MaxVolumes caps the volumes compacted in one call; 0 means no cap.
	MaxVolumes int
}

func (o CompactOptions) withDefaults() CompactOptions {
	if o.MaxLiveFraction <= 0 {
		o.MaxLiveFraction = 0.5
	}
	if o.MinHotVolumes <= 0 {
		o.MinHotVolumes = 2
	}
	return o
}

// CompactResult reports one CompactOnce pass.
type CompactResult struct {
	VolumesExamined int // candidate volumes scanned
	VolumesSkipped  int // candidates left hot (live fraction above the cap)
	VolumesReloc    int // volumes whose live entries were copied forward
	VolumesDemoted  int // volumes archived cold and released locally
	EntriesCopied   int
	BytesCopied     int64
}

// liveEntry is one collected live entry awaiting relocation.
type liveEntry struct {
	ids    []uint16
	data   []byte
	ts     int64
	attr   uint8
	origin *relocVol // the compacted volume whose copy this is; nil = this volume
	// seq is the entry's logical sequence number within its origin volume:
	// the collection order for native entries (physical = original order),
	// or derived from the containing range's Seq for relocated copies. A
	// host volume's physical layout can order another volume's copies
	// arbitrarily, so relocation sorts same-origin entries by seq to
	// restore the origin's append order.
	seq int
}

// CompactOnce runs one compaction pass: it first finishes any committed but
// not yet demoted work from a previous (possibly crashed) run, then compacts
// eligible volumes oldest first. It is safe to run concurrently with
// appends and reads; concurrent CompactOnce calls serialize.
func (s *Service) CompactOnce(ctx context.Context, opt CompactOptions) (*CompactResult, error) {
	if s.opt.Cold == nil {
		return nil, ErrNoColdTier
	}
	if s.closedFlag.Load() {
		return nil, ErrClosed
	}
	if opt == (CompactOptions{}) {
		opt = s.opt.Cold.Compact
	}
	opt = opt.withDefaults()
	s.cmpMu.Lock()
	defer s.cmpMu.Unlock()
	res := &CompactResult{}

	// Resume: demote volumes a previous run committed but never archived or
	// released (crash between commit and demotion).
	for _, v := range s.cmpState.Vols {
		if v.Demoted {
			continue
		}
		if err := s.demoteVolume(ctx, v, res); err != nil {
			return res, err
		}
	}

	skip := make(map[uint32]bool)
	for _, v := range s.cmpState.Vols {
		skip[v.Index] = true
	}
	// Bound the pass to volumes that exist now: concurrent appends keep
	// minting new sealed volumes, and a pass that chased them would never
	// terminate. Newer volumes wait for the next pass.
	eligible := make(map[uint32]bool)
	s.mu.Lock()
	for _, v := range s.set.Volumes() {
		eligible[v.Hdr.Index] = true
	}
	s.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if opt.MaxVolumes > 0 && res.VolumesReloc >= opt.MaxVolumes {
			return res, nil
		}
		cand := s.nextCandidate(opt, skip, eligible)
		if cand == nil {
			return res, nil
		}
		skip[cand.Hdr.Index] = true
		res.VolumesExamined++
		done, err := s.compactVolume(ctx, cand, opt, res)
		if err != nil {
			return res, err
		}
		if !done {
			res.VolumesSkipped++
		}
	}
}

// nextCandidate returns the oldest mounted volume eligible for compaction:
// present when the pass started, not the active volume, not already
// compacted or examined this pass, and with enough volumes left to respect
// MinHotVolumes.
func (s *Service) nextCandidate(opt CompactOptions, skip, eligible map[uint32]bool) *volume.Volume {
	s.mu.Lock()
	defer s.mu.Unlock()
	vols := s.set.Volumes()
	if len(vols) <= opt.MinHotVolumes {
		return nil
	}
	for _, v := range vols {
		if v == s.set.Active() || skip[v.Hdr.Index] || !eligible[v.Hdr.Index] {
			continue
		}
		return v
	}
	return nil
}

// compactVolume runs collect → relocate → commit → demote for one volume.
// It returns false (and no error) when the volume's live fraction exceeds
// the cap and the volume stays hot.
func (s *Service) compactVolume(ctx context.Context, v *volume.Volume, opt CompactOptions, res *CompactResult) (bool, error) {
	start := int(v.Hdr.StartOffset)
	written, err := v.DataWritten()
	if err != nil {
		return false, fmt.Errorf("clio: compact volume %d: %w", v.Hdr.Index, err)
	}
	live, liveBlocks, err := s.collectLive(start, start+written)
	if err != nil {
		return false, err
	}
	if err := s.opt.Faults.Fire(FaultCompact + "collected"); err != nil {
		return false, err
	}
	if written > 0 && float64(liveBlocks)/float64(written) > opt.MaxLiveFraction {
		return false, nil
	}

	// Relocate the live entries in origin order (all re-copies of one
	// previously compacted volume stay contiguous, so its replacement
	// ranges never interleave with another origin's) and, within an
	// origin, in logical order: the host's physical layout may differ
	// when an earlier pass placed logically later entries first.
	sort.SliceStable(live, func(i, j int) bool {
		oi, oj := originStart(live[i].origin, start), originStart(live[j].origin, start)
		if oi != oj {
			return oi < oj
		}
		return live[i].seq < live[j].seq
	})
	newVol := &relocVol{
		Index:    v.Hdr.Index,
		Start:    start,
		Blocks:   written,
		Capacity: v.DataCapacity(),
		idSet:    make(map[uint16]bool),
	}
	placed, err := s.relocateLocked(v, live, newVol)
	if errors.Is(err, errRelocDegraded) {
		// A media slide moved staged blocks mid-batch, so the recorded copy
		// positions are unreliable. The uncommitted copies are harmless
		// orphans; leave the volume hot and retry on a later pass.
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := s.opt.Faults.Fire(FaultCompact + "forced"); err != nil {
		return false, err
	}

	// Commit: fold the new ranges into a fresh state and save the sidecar.
	st := s.cmpState.clone()
	if err := foldRanges(st, newVol, live, placed, start, written); err != nil {
		return false, err
	}
	if err := s.commitColdState(st); err != nil {
		return false, err
	}
	res.VolumesReloc++
	res.EntriesCopied += len(placed)
	for _, e := range live {
		res.BytesCopied += int64(len(e.data))
	}
	if err := s.opt.Faults.Fire(FaultCompact + "committed"); err != nil {
		return false, err
	}

	// Demote the freshly committed volume.
	for _, cv := range s.cmpState.Vols {
		if cv.Index == newVol.Index && !cv.Demoted {
			if err := s.demoteVolume(ctx, cv, res); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

// originStart orders collected entries by their origin volume's start
// offset; entries native to the volume being compacted sort at its own
// start.
func originStart(origin *relocVol, self int) int {
	if origin == nil {
		return self
	}
	return origin.Start
}

// collectLive scans global data blocks [from, to) and returns the live
// entries (first fragments only; fragmented data is reassembled, possibly
// from past `to`). The scan applies the cursor visibility rules, so
// superseded originals and orphan copies are never collected twice.
func (s *Service) collectLive(from, to int) ([]liveEntry, int, error) {
	view := s.cmpView.Load()
	var out []liveEntry
	liveBlocks := 0
	nativeSeq := 0
	rangeOff := make(map[*copyRange]int) // live entries seen per range so far
	for g := from; g < to; g++ {
		db, err := s.decodeBlock(g)
		if err != nil {
			continue // damaged or invalidated: nothing live here
		}
		blockLive := false
		eff := db.p.FirstTimestamp // record i's effective timestamp, carried along the scan
		for i, r := range db.p.Records {
			eff = db.p.EffectiveFrom(i, i-1, eff)
			if r.Continued {
				continue
			}
			var origin *relocVol
			var rng *copyRange
			if r.AttrFlags&blockfmt.AttrRelocated != 0 {
				if origin, rng = view.originOf(g, i); origin == nil {
					continue // orphan from an aborted compaction
				}
			}
			ids := append([]uint16{r.LogID}, r.ExtraIDs...)
			if !s.anyLive(ids) {
				continue
			}
			data, aerr := s.assemble(g, i, db.p)
			if aerr != nil {
				continue // torn or lost: nothing to preserve
			}
			seq := nativeSeq
			if rng != nil {
				// A re-copy inherits its order from the containing range:
				// Seq plus the offset among the range's surviving entries
				// keeps every same-origin pair ordered as originally
				// appended, whatever the host's physical layout.
				seq = rng.Seq + rangeOff[rng]
				rangeOff[rng]++
			} else {
				nativeSeq++
			}
			out = append(out, liveEntry{
				ids:    ids,
				data:   append([]byte(nil), data...),
				ts:     eff,
				attr:   (r.AttrFlags & blockfmt.AttrForced) | blockfmt.AttrRelocated,
				origin: origin,
				seq:    seq,
			})
			blockLive = true
		}
		if blockLive {
			liveBlocks++
		}
	}
	return out, liveBlocks, nil
}

// anyLive reports whether at least one member id is a client log file whose
// descriptor is not retired. System log files (entrymap, catalog, bad-block,
// checkpoint, compact markers) are never live: their history stays readable
// on the original blocks, cold included, and checkpoints bound how far back
// recovery ever reads.
func (s *Service) anyLive(ids []uint16) bool {
	for _, id := range ids {
		if id < entrymap.FirstClientID {
			continue
		}
		d, err := s.cat.Get(id)
		if err != nil || d.System || d.Retired {
			continue
		}
		return true
	}
	return false
}

// placedCopy records where one relocated copy's first fragment landed.
type placedCopy struct {
	block, rec int
}

// relocateLocked appends the copies and the ".compact" marker and forces
// the batch, all under one s.mu hold. The copies keep their original record
// timestamps (FormFull, so the timestamp is explicit) while any block the
// batch opens gets a current footer timestamp, preserving the footer
// monotonicity recovery and scrubbing rely on.
func (s *Service) relocateLocked(v *volume.Volume, live []liveEntry, nv *relocVol) ([]placedCopy, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return nil, ErrClosed
	}
	// Only slides during this batch matter for the placement check below;
	// badBlocks only ever grows (ResetCounters cannot touch it).
	dead := len(s.badBlocks)
	placed := make([]placedCopy, 0, len(live))
	for i := range live {
		e := &live[i]
		form := uint8(blockfmt.FormFull)
		var extras []uint16
		if len(e.ids) > 1 {
			form = blockfmt.FormMulti
			extras = e.ids[1:]
		}
		block, rec, err := s.appendEntryLocked(e.ids[0], extras, e.data, form, e.attr, e.ts, true)
		if err != nil {
			return nil, fmt.Errorf("clio: relocate entry: %w", err)
		}
		placed = append(placed, placedCopy{block: block, rec: rec})
		if e.origin == nil {
			for _, id := range e.ids {
				if !nv.idSet[id] {
					nv.idSet[id] = true
					nv.IDs = append(nv.IDs, id)
				}
			}
		}
		s.stats.EntriesRelocated++
		s.stats.BytesRelocated += int64(len(e.data))
	}
	sort.Slice(nv.IDs, func(i, j int) bool { return nv.IDs[i] < nv.IDs[j] })
	marker := encodeCompactMarker(v.Hdr.Index, nv.IDs)
	if err := s.appendSystemLocked(entrymap.CompactID, marker,
		blockfmt.FormFull, blockfmt.AttrSystem, s.nextTS(false), false); err != nil {
		return nil, err
	}
	if err := s.flushDueLocked(); err != nil {
		return nil, err
	}
	if err := s.forceLocked(); err != nil {
		return nil, err
	}
	// The placements are final only once every staged block is on the device:
	// a damaged-block slide renumbers staged blocks wholesale, invalidating
	// the positions recorded above. Drain the pipeline and abort the commit
	// if anything slid.
	if err := s.drainPipeLocked(); err != nil {
		return nil, err
	}
	if len(s.badBlocks) != dead {
		return nil, errRelocDegraded
	}
	return placed, nil
}

// errRelocDegraded aborts a relocation batch whose staged blocks slid past
// damaged media; the uncommitted copies are orphans and the volume is
// retried on a later pass.
var errRelocDegraded = errors.New("clio: media slide during relocation")

// encodeCompactMarker encodes the in-log audit record appended after a
// volume's copies: the compacted volume's index and the relocated ids. The
// sidecar, not this record, is authoritative; the marker exists so the
// volume sequence itself documents every compaction.
func encodeCompactMarker(index uint32, ids []uint16) []byte {
	out := wire.PutUint32(nil, index)
	out = wire.PutUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = wire.PutUvarint(out, uint64(id))
	}
	return out
}

// DecodeCompactMarker decodes a ".compact" marker entry's payload.
func DecodeCompactMarker(data []byte) (index uint32, ids []uint16, err error) {
	r := wire.NewReader(data, errBadMarker)
	index, ids = r.Uint32(), readSidecarIDs(r)
	if r.Err() != nil {
		return 0, nil, r.Err()
	}
	return index, ids, nil
}

var errBadMarker = errors.New("clio: malformed compaction marker")

// foldRanges turns the placed copies into per-origin ranges and folds them
// into the prepared state: the compacted volume gains its own ranges; every
// origin volume whose copies were hosted in [start, start+written) has
// those ranges replaced by the re-copies. Each range carries the logical
// sequence number of its first entry, so the origin's list stays in
// original entry order no matter where successive passes scatter the
// copies physically.
//
// A range covers exactly the consecutive sequence run Seq..Seq+slots-1, so
// merging a placement requires logical continuity as well as physical
// adjacency. Two live entries with a sequence gap — the entries between
// them are hosted in a volume this batch did not compact — can land in
// adjacent slots, and merging them would silently collapse the gap: the
// range would claim sequence numbers that actually belong to another
// host's range, and Seq-sorted delivery would invert their order.
func foldRanges(st *compactState, nv *relocVol, live []liveEntry, placed []placedCopy, start, written int) error {
	if len(placed) != len(live) {
		return errors.New("clio: compact bookkeeping mismatch")
	}
	// Group placements by origin, preserving order (live is origin-sorted).
	type group struct {
		origin *relocVol
		ranges []copyRange
	}
	var groups []group
	for i := range placed {
		o := live[i].origin
		if len(groups) == 0 || groups[len(groups)-1].origin != o {
			groups = append(groups, group{origin: o})
		}
		g := &groups[len(groups)-1]
		p := placed[i]
		if n := len(g.ranges); n > 0 && sameHostRun(&g.ranges[n-1], p) &&
			live[i].seq == g.ranges[n-1].Seq+(g.ranges[n-1].EndRec-g.ranges[n-1].StartRec+1) {
			g.ranges[n-1].EndBlock, g.ranges[n-1].EndRec = p.block, p.rec
		} else {
			g.ranges = append(g.ranges, copyRange{
				StartBlock: p.block, StartRec: p.rec,
				EndBlock: p.block, EndRec: p.rec,
				Seq: live[i].seq,
			})
		}
	}
	for _, g := range groups {
		if g.origin == nil {
			nv.Ranges = append(nv.Ranges, g.ranges...)
			continue
		}
		// Find the origin in the cloned state and replace its ranges hosted
		// in the compacted region.
		var target *relocVol
		for _, v := range st.Vols {
			if v.Index == g.origin.Index {
				target = v
				break
			}
		}
		if target == nil {
			return fmt.Errorf("clio: compact origin volume %d missing from sidecar", g.origin.Index)
		}
		replaceHostedRanges(target, start, start+written, g.ranges)
	}
	// Origins whose hosted copies all died (every entry retired since the
	// last compaction) produced no group; still drop their stale ranges.
	for _, v := range st.Vols {
		hosted := false
		for _, r := range v.Ranges {
			if r.StartBlock >= start && r.StartBlock < start+written {
				hosted = true
				break
			}
		}
		if hosted {
			replaced := false
			for _, g := range groups {
				if g.origin != nil && g.origin.Index == v.Index {
					replaced = true
					break
				}
			}
			if !replaced {
				replaceHostedRanges(v, start, start+written, nil)
			}
		}
	}
	st.Vols = append(st.Vols, nv)
	return nil
}

// sameHostRun reports whether a placement extends the given range. Only the
// immediately following record slot of the same block merges: a batch can be
// interleaved with foreign records (concurrent appends sneak in at pipeline
// wait points; entrymap records flush between copies), and a range must
// never cover a slot the batch did not place — redirect iteration would
// serve a foreign client record twice. Strict record adjacency makes every
// range exact, at the cost of one range per block.
func sameHostRun(r *copyRange, p placedCopy) bool {
	return p.block == r.EndBlock && p.rec == r.EndRec+1
}

// replaceHostedRanges replaces v's ranges whose copies live in global
// blocks [from, to) with the replacement ranges, wherever they sit in the
// list, and restores the Seq order that redirect iteration delivers.
func replaceHostedRanges(v *relocVol, from, to int, repl []copyRange) {
	out := make([]copyRange, 0, len(v.Ranges)+len(repl))
	for _, r := range v.Ranges {
		if r.StartBlock >= from && r.StartBlock < to {
			continue
		}
		out = append(out, r)
	}
	out = append(out, repl...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	v.Ranges = out
}

// demoteVolume archives a committed volume's device image cold, marks it
// demoted in the sidecar, removes the device from the mounted set and
// releases the local media. Every step is idempotent, so a crashed or
// aborted demotion simply reruns.
func (s *Service) demoteVolume(ctx context.Context, v *relocVol, res *CompactResult) error {
	be := s.opt.Cold.Backend
	s.mu.Lock()
	var dev *volume.Volume
	for _, mv := range s.set.Volumes() {
		if mv.Hdr.Index == v.Index {
			dev = mv
			break
		}
	}
	s.mu.Unlock()
	if dev != nil {
		if _, err := archive.BackupVolume(ctx, be, dev.Dev); err != nil {
			return fmt.Errorf("clio: archive volume %d: %w", v.Index, err)
		}
	} else {
		// Device already gone (resumed run): verify the cold copy exists
		// before trusting the demotion.
		ok, err := archive.HasVolume(ctx, be, v.Index, v.Blocks+1)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("clio: volume %d missing locally and from the cold backend", v.Index)
		}
	}
	if err := s.opt.Faults.Fire(FaultCompact + "archived"); err != nil {
		return err
	}
	if !v.Demoted {
		st := s.cmpState.clone()
		for _, cv := range st.Vols {
			if cv.Index == v.Index {
				cv.Demoted = true
			}
		}
		if err := s.commitColdState(st); err != nil {
			return err
		}
		v.Demoted = true
		res.VolumesDemoted++
	}
	if dev != nil {
		s.mu.Lock()
		_, rerr := s.set.Remove(v.Index)
		s.mu.Unlock()
		if rerr != nil {
			return fmt.Errorf("clio: unmount demoted volume %d: %w", v.Index, rerr)
		}
		if rel := s.opt.Cold.Release; rel != nil {
			if err := rel(v.Index); err != nil {
				return fmt.Errorf("clio: release volume %d: %w", v.Index, err)
			}
		}
	}
	return s.opt.Faults.Fire(FaultCompact + "demoted")
}

// sweepDemoted finishes demotions a crash interrupted after the sidecar
// marked the volume demoted but before the local device was released. Runs
// once at Open, after recovery.
func (s *Service) sweepDemoted() error {
	if s.opt.Cold == nil {
		return nil
	}
	ctx := context.Background()
	for _, v := range s.cmpState.Vols {
		if !v.Demoted {
			continue
		}
		s.mu.Lock()
		var dev *volume.Volume
		for _, mv := range s.set.Volumes() {
			if mv.Hdr.Index == v.Index {
				dev = mv
				break
			}
		}
		s.mu.Unlock()
		if dev == nil {
			continue
		}
		// Re-archive (idempotent) rather than merely probing: the cheapest
		// way to guarantee the cold image is complete before dropping the
		// only other copy.
		if _, err := archive.BackupVolume(ctx, s.opt.Cold.Backend, dev.Dev); err != nil {
			return fmt.Errorf("clio: verify cold image of volume %d: %w", v.Index, err)
		}
		s.mu.Lock()
		_, rerr := s.set.Remove(v.Index)
		s.mu.Unlock()
		if rerr != nil {
			return rerr
		}
		if rel := s.opt.Cold.Release; rel != nil {
			if err := rel(v.Index); err != nil {
				return err
			}
		}
	}
	return nil
}
