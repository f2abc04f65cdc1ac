package core

import (
	"bytes"
	"fmt"
	"sort"

	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/catalog"
	"clio/internal/entrymap"
	"clio/internal/wire"
)

// RecoveryReport describes the work server initialization performed, for
// the Figure 4 experiments (§2.3.1 / §3.4). The tagged fields are also
// /metrics gauges (obs.RegisterStruct).
type RecoveryReport struct {
	// SealedBlocks is the located end of the written portion.
	SealedBlocks int
	// EndProbes counts device reads used to find the end (binary search).
	EndProbes int64
	// EntrymapBlocksScanned counts raw blocks examined to reconstruct
	// missing entrymap information.
	EntrymapBlocksScanned int `metric:"clio_recovery_entrymap_blocks_scanned" help:"Raw blocks examined for entrymap state at the last recovery."`
	// EntrymapEntriesRead counts entrymap entries read back.
	EntrymapEntriesRead int
	// CatalogEntries counts replayed catalog records.
	CatalogEntries int
	// TailRestored reports whether an NVRAM-staged tail block was restored.
	TailRestored bool
	// BadBlocks lists the known corrupted block indices from the bad-block
	// log file.
	BadBlocks []int
	// StagedSeals counts sealed block images replayed from the staging
	// NVRAM — blocks that were acked durable but whose pipelined device
	// write the crash cut off (see pipeline.go).
	StagedSeals int
	// CheckpointUsed reports whether recovery restored from an in-log
	// checkpoint instead of reconstructing from scratch.
	CheckpointUsed bool `metric:"clio_recovery_checkpoint_used" help:"Whether the last recovery restored from an in-log checkpoint (1) or reconstructed fully (0)."`
	// BlocksReplayed counts the sealed blocks replayed after the
	// checkpoint; zero when CheckpointUsed is false.
	BlocksReplayed int `metric:"clio_recovery_blocks_replayed" help:"Blocks replayed after the checkpoint at the last recovery (0 when recovery reconstructed fully)."`
	// VolumesRelocated counts volumes the compactor has copied forward
	// (the compaction sidecar's committed volumes), VolumesDemoted those
	// already archived to the cold tier and released locally.
	VolumesRelocated int
	VolumesDemoted   int
}

// LastRecovery returns the report from the service's Open.
func (s *Service) LastRecovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// recover performs server initialization (§2.3.1):
//
//  1. locate the most recently written block (binary search if the device
//     cannot be queried directly);
//  2. examine recently-written blocks to reconstruct entrymap information
//     that was only in volatile memory at the crash;
//  3. read the catalog log file to rebuild the log-file table;
//
// plus, in this implementation, restoring the NVRAM-staged tail block and
// the bad-block list.
//
// When the checkpoint policy is active (Options.CheckpointInterval > 0),
// steps 2 and 3 restore from the newest valid in-log checkpoint instead and
// replay only the blocks after it, bounding reopen cost by the tail length
// rather than the volume size. A missing, torn or checksum-failed
// checkpoint falls back to the full path below — on write-once media an
// invalid checkpoint is garbage to skip, never corruption to repair.
func (s *Service) recover() error {
	probesBefore := s.DeviceStats().Probes
	end, err := s.set.GlobalEnd()
	if err != nil {
		return fmt.Errorf("clio: locate end of written portion: %w", err)
	}
	s.sealedEnd = end
	s.publishTail(nil) // entrymap reconstruction reads through the snapshot
	s.recovery.SealedBlocks = end
	s.recovery.EndProbes = s.DeviceStats().Probes - probesBefore

	// Replay sealed block images the crash left in the staging NVRAM before
	// anything examines the sealed prefix: the replayed blocks can hold
	// checkpoint, entrymap and catalog records themselves.
	if err := s.replayStagedSeals(); err != nil {
		return err
	}
	end = s.sealedEnd
	s.recovery.SealedBlocks = end

	if cp := s.findCheckpoint(end); cp != nil {
		err := s.restoreFromCheckpoint(cp, end)
		if err == nil {
			// Everything through end is now reflected in memory, so the next
			// checkpoint is owed only after CheckpointInterval *new* blocks.
			// (Using cp.coveredEnd here would make every idle close/reopen
			// cycle burn a block on a fresh checkpoint, since the previous
			// checkpoint's own blocks always sit past its coveredEnd.)
			s.ckptAt = end
			s.badBlocks = append([]int(nil), s.recovery.BadBlocks...)
			s.mergeReplayBadLocked()
			s.restoreLastTS()
			return nil
		}
		// The snapshot could not be applied: reset what the partial
		// restore touched and reconstruct from scratch.
		s.cat = catalog.NewTable()
		s.recovery = RecoveryReport{
			SealedBlocks: s.recovery.SealedBlocks,
			EndProbes:    s.recovery.EndProbes,
			StagedSeals:  s.recovery.StagedSeals,
		}
		s.lastBound = 0
		s.lastTS = 0
	}

	// Step 2: reconstruct the entrymap accumulator from the sealed blocks.
	acc, rstats, err := entrymap.Reconstruct((*locatorSource)(s), s.opt.Degree, s.sealedEnd)
	if err != nil {
		return fmt.Errorf("clio: reconstruct entrymap state: %w", err)
	}
	s.acc = acc
	s.recovery.EntrymapBlocksScanned = rstats.BlocksScanned
	s.recovery.EntrymapEntriesRead = rstats.EntriesRead
	if s.sealedEnd > 0 {
		s.lastBound = ((s.sealedEnd - 1) / s.opt.Degree) * s.opt.Degree
	}

	// Restore the NVRAM-staged tail block, if it is current.
	if err := s.restoreTail(); err != nil {
		return err
	}

	// Step 3: replay the catalog log file.
	if err := s.replayCatalog(); err != nil {
		return err
	}

	// Load the bad-block list (§2.3.2).
	if err := s.replayBadBlocks(); err != nil {
		return err
	}
	s.badBlocks = append([]int(nil), s.recovery.BadBlocks...)
	s.mergeReplayBadLocked()

	// Re-arm the timestamp clock past anything already written.
	s.restoreLastTS()
	return nil
}

// replayStagedSeals writes out sealed block images that were staged to the
// NVRAM (and acked durable) but whose background device writes a crash cut
// off (pipeline.go). The pipeline completes strictly in order, so at most
// the oldest staged image can already be on the device — only its DropSealed
// was lost; every other image is placed at the current end by the live seal
// loop (writeSealLocked: damaged-block slides, volume extension). Completing
// the seal is only the frontier advance here: the accumulator and stats are
// rebuilt from the device right after, and the bad blocks a slide queued in
// pendingBad are logged by the first post-recovery append.
func (s *Service) replayStagedSeals() error {
	nv := s.staging
	if nv == nil {
		return nil
	}
	globals, images, err := nv.LoadSealed()
	if err != nil {
		return fmt.Errorf("clio: nvram load sealed: %w", err)
	}
	if len(globals) == 0 {
		return nil
	}
	order := make([]int, len(globals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return globals[order[a]] < globals[order[b]] })
	for i, oi := range order {
		g, img := globals[oi], images[oi]
		if i == 0 && g > s.sealedEnd {
			return fmt.Errorf("clio: staged seal for block %d but device end is %d (missing volume?)", g, s.sealedEnd)
		}
		if i == 0 && s.sealedEnd > 0 && s.deviceHoldsImage(s.sealedEnd-1, img) {
			// Already written just before the crash; nothing to replay.
		} else {
			ps := &pendingSeal{global: s.sealedEnd, origGlobal: g, img: img}
			if err := s.writeSealLocked(ps, s.writeTailBlockLocked); err != nil {
				return fmt.Errorf("clio: replay staged seal: %w", err)
			}
			s.sealedEnd = ps.global + 1
			// ps.img is LoadSealed's own copy (or a Reindex of it).
			s.blockCache().Put(cache.Key{Block: ps.global}, ps.img)
			s.publishTail(nil)
		}
		if err := nv.DropSealed(g); err != nil {
			return fmt.Errorf("clio: nvram drop sealed: %w", err)
		}
		s.recovery.StagedSeals++
		s.stagedTailFrom = g + 1
	}
	return nil
}

// deviceHoldsImage reports whether the device block at pos holds the staged
// image's contents. The device copy may legitimately differ in block index
// (damaged-block slides renumber), the volume-sealed flag (decided at write
// time) and therefore the trailing CRC; the payload, magic, record count and
// first timestamp must match byte for byte.
func (s *Service) deviceHoldsImage(pos int, staged []byte) bool {
	dev, err := s.readBlock(pos)
	if err != nil || len(dev) != len(staged) || !blockfmt.Validate(dev) {
		return false
	}
	n := len(dev)
	if !bytes.Equal(dev[:n-blockfmt.FooterSize], staged[:n-blockfmt.FooterSize]) {
		return false
	}
	df := dev[n-blockfmt.FooterSize:]
	sf := staged[n-blockfmt.FooterSize:]
	return bytes.Equal(df[:3], sf[:3]) && bytes.Equal(df[4:14], sf[4:14]) &&
		df[3]&^byte(blockfmt.FlagVolumeSealed) == sf[3]&^byte(blockfmt.FlagVolumeSealed)
}

// mergeReplayBadLocked folds bad blocks discovered while replaying staged
// seals into the recovery report and live list (their log records are still
// queued in pendingBad).
func (s *Service) mergeReplayBadLocked() {
	for _, b := range s.pendingBad {
		s.recovery.BadBlocks = append(s.recovery.BadBlocks, b)
		s.badBlocks = append(s.badBlocks, b)
	}
}

// restoreTail re-stages an NVRAM-held tail block whose position matches the
// device's written end, rebuilding the block builder from its records and
// re-running the boundary accumulator work the dead server had done.
func (s *Service) restoreTail() error {
	nv := s.opt.NVRAM
	if nv == nil {
		return nil
	}
	g, img, err := nv.Load()
	if err != nil {
		return fmt.Errorf("clio: nvram load: %w", err)
	}
	if img == nil {
		return nil
	}
	renumbered := false
	if s.stagedTailFrom >= 0 && g >= s.stagedTailFrom {
		// The tail was staged after the pipelined seals just replayed; its
		// stored position reflects the dead server's numbering (possibly
		// slid), but its place is wherever the replay left the frontier.
		renumbered = g != s.sealedEnd
		g = s.sealedEnd
	}
	if g < s.sealedEnd {
		// Stale: the block was sealed to the device before the crash.
		return nv.Clear()
	}
	if g > s.sealedEnd {
		return fmt.Errorf("clio: nvram holds block %d but device end is %d (missing volume?)", g, s.sealedEnd)
	}
	parsed, err := blockfmt.Parse(img)
	if err != nil {
		// A torn NVRAM image: discard; the unsynced tail entries are lost.
		return nv.Clear()
	}
	var r blockfmt.RecordView
	if n := parsed.Len(); n > 0 {
		parsed.Record(n-1, &r)
	}
	if r.Continues {
		// The image ends mid-chain, which a consistent staging never does:
		// treat as torn.
		return nv.Clear()
	}
	b, err := blockfmt.NewBuilder(s.opt.BlockSize, uint32(g))
	if err != nil {
		return err
	}
	if fts := parsed.FirstTimestamp; fts != 0 {
		b.SetFirstTimestamp(fts)
	}
	b.SetFlags(parsed.Flags)
	s.clearTailIDsLocked()
	for i := range parsed.Len() {
		parsed.Record(i, &r)
		rec := blockfmt.Record{
			LogID:     r.LogID,
			Form:      r.Form,
			AttrFlags: r.AttrFlags,
			Timestamp: r.Timestamp,
			Continued: r.Continued,
			Continues: r.Continues,
			Data:      r.Data,
			ExtraIDs:  r.ExtraIDs.Append(nil),
		}
		if err := b.Append(rec); err != nil {
			return fmt.Errorf("clio: rebuild staged tail: %w", err)
		}
		s.noteTailIDLocked(r.LogID)
		for k := range r.ExtraIDs.Len() {
			s.noteTailIDLocked(r.ExtraIDs.At(k))
		}
	}
	s.builder = b
	s.tailGlobal = g
	if renumbered {
		// The stored image carries the dead server's block index; publish a
		// reserialization under the restored position instead.
		img = b.Seal()
	}
	s.publishTail(img) // Load's own copy (or a fresh Seal): readers share it
	s.recovery.TailRestored = true

	// Re-run the accumulator for boundaries the dead server had already
	// emitted when it started this block; entries it had physically written
	// are in the image, the rest must be queued again.
	var due []*entrymap.Entry
	n := s.opt.Degree
	for bnd := (s.lastBound/n + 1) * n; bnd <= g; bnd += n {
		due = append(due, s.acc.EntriesDue(bnd)...)
		s.lastBound = bnd
	}
	for _, e := range due {
		if !s.tailHasEntrymapEntry(&parsed, e.Level, e.Boundary) {
			s.pendingDue = append(s.pendingDue, e)
		}
	}
	return nil
}

// tailHasEntrymapEntry reports whether the staged image already contains the
// entrymap entry for (level, boundary).
func (s *Service) tailHasEntrymapEntry(parsed *blockfmt.Parsed, level, boundary int) bool {
	var r blockfmt.RecordView
	for i := range parsed.Len() {
		parsed.Record(i, &r)
		if r.LogID != entrymap.EntrymapID || r.Continued || r.Continues {
			continue
		}
		e, err := entrymap.Decode(r.Data)
		if err != nil {
			continue
		}
		if e.Level == level && e.Boundary == boundary {
			return true
		}
	}
	return false
}

// catalogSet and badBlockSet are the one-id sets recovery's scans search for.
var (
	catalogSet  = []uint16{entrymap.CatalogID}
	badBlockSet = []uint16{entrymap.BadBlockID}
)

// replayCatalog rebuilds the log-file table by reading the catalog log file
// from the beginning of the sequence.
func (s *Service) replayCatalog() error {
	return s.replayCatalogFrom(0)
}

// replayCatalogFrom applies the catalog records found in blocks at or after
// `from` (checkpoint recovery replays only the suffix past the snapshot).
func (s *Service) replayCatalogFrom(from int) error {
	b, _, err := s.locFindNext(catalogSet, from)
	if err != nil {
		return err
	}
	var r blockfmt.RecordView
	for b >= 0 {
		parsed, perr := s.parseBlock(b)
		if perr == nil {
			for i := range parsed.Len() {
				if parsed.Record(i, &r); r.LogID != entrymap.CatalogID || r.Continued {
					continue
				}
				data, aerr := s.assemble(b, i, parsed)
				if aerr != nil {
					continue // lost catalog record: the files it described
					// are recoverable only via their entries
				}
				rec, derr := catalog.DecodeRecord(data)
				if derr != nil {
					continue
				}
				if err := s.cat.Apply(rec); err != nil {
					return fmt.Errorf("clio: catalog replay: %w", err)
				}
				s.recovery.CatalogEntries++
			}
		}
		b, _, err = s.locFindNext(catalogSet, b+1)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayBadBlocks loads the bad-block log file (§2.3.2).
func (s *Service) replayBadBlocks() error {
	got, err := s.readBadBlocksFrom(0)
	if err != nil {
		return err
	}
	s.recovery.BadBlocks = append(s.recovery.BadBlocks, got...)
	return nil
}

// readBadBlocksFrom returns the bad-block indices logged in blocks at or
// after `from`.
func (s *Service) readBadBlocksFrom(from int) ([]int, error) {
	var out []int
	b, _, err := s.locFindNext(badBlockSet, from)
	if err != nil {
		return nil, err
	}
	var r blockfmt.RecordView
	for b >= 0 {
		parsed, perr := s.parseBlock(b)
		if perr == nil {
			for i := range parsed.Len() {
				if parsed.Record(i, &r); r.LogID != entrymap.BadBlockID || r.Continued {
					continue
				}
				data, aerr := s.assemble(b, i, parsed)
				if aerr != nil {
					continue
				}
				if idx, _, uerr := wire.Uvarint(data); uerr == nil {
					out = append(out, int(idx))
				}
			}
		}
		b, _, err = s.locFindNext(badBlockSet, b+1)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// restoreLastTS arms the timestamp clock past every written timestamp by
// examining the newest readable blocks.
func (s *Service) restoreLastTS() {
	end := s.endLocked()
	const scanLimit = 64
	for b := end - 1; b >= 0 && b >= end-scanLimit; b-- {
		parsed, err := s.parseBlock(b)
		if err != nil {
			continue
		}
		max := parsed.FirstTimestamp
		var r blockfmt.RecordView
		for i := range parsed.Len() {
			// A view's Timestamp is set by full and multi-member headers
			// alike, and is zero for the minimal form.
			if parsed.Record(i, &r); r.Timestamp > max {
				max = r.Timestamp
			}
		}
		if max > s.lastTS {
			s.lastTS = max
		}
		return // the newest readable block suffices: timestamps are monotone
	}
}
