package core

import (
	"errors"
	"fmt"

	"clio/internal/blockfmt"
	"clio/internal/catalog"
	"clio/internal/entrymap"
	"clio/internal/wire"
)

// Recovery checkpoints (an extension beyond the paper, motivated by its own
// §3.4 numbers: server initialization cost grows with the written portion).
// A checkpoint is an ordinary log entry in the reserved ".checkpoint" system
// log file that snapshots the server state recovery would otherwise
// reconstruct by scanning: the entrymap accumulator, the rebuilt log-file
// table, the bad-block list, and the sealed end the snapshot covers. Reopen
// then replays only the blocks after the newest valid checkpoint.
//
// Validity on write-once media follows the same rule as the NVRAM tail
// image (see FileNVRAM): the payload carries a magic and a trailing CRC,
// and anything that fails to parse — a torn fragment chain, a damaged
// block, a mismatched checksum — is just garbage to skip, never corruption
// to repair; recovery keeps scanning for an older checkpoint and finally
// falls back to the full reconstruction of §2.3.1.

// ckptMagic introduces every checkpoint payload.
const ckptMagic = "CKP1"

var errBadCheckpoint = errors.New("clio: invalid checkpoint record")

// checkpoint is a decoded checkpoint record.
type checkpoint struct {
	// coveredEnd is the sealed-block count P the snapshot covers: the
	// accumulator and catalog states describe exactly blocks [0, P), so
	// recovery replays [P, end).
	coveredEnd int
	// lastBound is the writer's boundary-emission position at snapshot
	// time (Service.lastBound).
	lastBound int
	// lastTS is a floor for the timestamp clock.
	lastTS int64
	// acc is the restored entrymap accumulator.
	acc *entrymap.Accumulator
	// catalog holds the snapshot records rebuilding the log-file table as
	// of coveredEnd (parents before children, retires included).
	catalog []*catalog.Record
	// badBlocks is the known bad-block list as of coveredEnd.
	badBlocks []int
}

// encodeCheckpointLocked serializes the current recovery-relevant state;
// s.mu held. Layout:
//
//	"CKP1" coveredEnd(uvarint) lastBound(uvarint) lastTS(u64)
//	accLen(uvarint) accState
//	catCount(uvarint) { recLen(uvarint) rec }*
//	badCount(uvarint) { index(uvarint) }*
//	crc(u32 over everything above)
func (s *Service) encodeCheckpointLocked() []byte {
	s.idxMu.Lock()
	accState := s.acc.EncodeState(nil)
	s.idxMu.Unlock()
	return encodeCheckpoint(s.sealedEnd, s.lastBound, s.lastTS, accState, s.cat.SnapshotRecords(), s.badBlocks)
}

func encodeCheckpoint(coveredEnd, lastBound int, lastTS int64, accState []byte, recs []*catalog.Record, badBlocks []int) []byte {
	out := append([]byte(nil), ckptMagic...)
	out = wire.PutUvarint(out, uint64(coveredEnd))
	out = wire.PutUvarint(out, uint64(lastBound))
	out = wire.PutUint64(out, uint64(lastTS))
	out = wire.PutUvarint(out, uint64(len(accState)))
	out = append(out, accState...)
	out = wire.PutUvarint(out, uint64(len(recs)))
	for _, rec := range recs {
		enc := rec.Encode(nil)
		out = wire.PutUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
	}
	out = wire.PutUvarint(out, uint64(len(badBlocks)))
	for _, b := range badBlocks {
		out = wire.PutUvarint(out, uint64(b))
	}
	return wire.PutUint32(out, wire.Checksum(out))
}

// decodeCheckpoint parses and validates a checkpoint payload. Every failure
// returns errBadCheckpoint: on write-once media an invalid checkpoint is
// indistinguishable from a torn one and is simply skipped.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, errBadCheckpoint
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	crc, err := wire.Uint32(tail)
	if err != nil || wire.Checksum(body) != crc {
		return nil, errBadCheckpoint
	}
	r := wire.NewReader(body[len(ckptMagic):], errBadCheckpoint)
	cp := &checkpoint{coveredEnd: int(r.Uvarint()), lastBound: int(r.Uvarint()), lastTS: r.Int64()}
	accState := r.View()
	if r.Err() != nil {
		return nil, errBadCheckpoint
	}
	acc, used, err := entrymap.DecodeState(accState)
	if err != nil || used != len(accState) {
		return nil, errBadCheckpoint
	}
	cp.acc = acc
	for n := r.Bounded(maxSidecarIDs, "catalog count"); n > 0 && r.Err() == nil; n-- {
		rec, err := catalog.DecodeRecord(r.View())
		if err != nil {
			return nil, errBadCheckpoint
		}
		cp.catalog = append(cp.catalog, rec)
	}
	for n := r.Bounded(1<<24, "bad-block count"); n > 0 && r.Err() == nil; n-- {
		cp.badBlocks = append(cp.badBlocks, int(r.Uvarint()))
	}
	if r.Err() != nil || r.Len() != 0 {
		return nil, errBadCheckpoint
	}
	return cp, nil
}

// maxSidecarIDs bounds the per-volume id lists and catalog snapshots the
// checkpoint and compaction decoders accept: every log-file id once, plus as
// many retire records.
const maxSidecarIDs = 2 * (wire.MaxLogID + 1)

// maybeCheckpointLocked emits a checkpoint when the every-K-sealed-blocks
// policy says one is due. It runs under s.mu at operation-completion points
// only — after a group commit's force, after an unforced append, after an
// explicit Force — so a checkpoint can never interleave with,
// or reorder, a client entry.
func (s *Service) maybeCheckpointLocked() error {
	k := s.opt.CheckpointInterval
	if k <= 0 || s.sealedEnd-s.ckptAt < k {
		return nil
	}
	return s.emitCheckpointLocked()
}

// emitCheckpointLocked snapshots the recovery state, appends it to the
// checkpoint system log file and seals the receiving block(s): a checkpoint
// is only useful once it is on the write-once device, where the backward
// scan of the next Open can find it. A non-quiescent moment (incomplete
// fragment chain, queued entrymap or snapshot records) skips silently; the
// next completion point retries.
func (s *Service) emitCheckpointLocked() error {
	if s.midChain || len(s.pendingDue) > 0 || len(s.pendingBad) > 0 || len(s.pendingSnapshot) > 0 {
		return nil
	}
	payload := s.encodeCheckpointLocked()
	if err := s.appendSystemLocked(entrymap.CheckpointID, payload,
		blockfmt.FormFull, blockfmt.AttrSystem, s.nextTS(), false); err != nil {
		return err
	}
	// Appending the checkpoint may itself cross entrymap boundaries.
	if err := s.flushDueLocked(); err != nil {
		return err
	}
	if err := s.sealTailLocked(false); err != nil {
		return err
	}
	s.ckptAt = s.sealedEnd
	s.stats.Checkpoints++
	s.stats.CheckpointBytes += int64(len(payload))
	return nil
}

// findCheckpoint scans backward from the located end for the newest valid
// checkpoint record. The scan is bounded: with the interval policy active a
// checkpoint lies at most interval-plus-slack blocks behind the end (the
// slack covers one maximally fragmented entry chain plus the displacement
// the policy call sites allow), so a miss within the window means the store
// has no usable checkpoint and recovery falls back to full reconstruction.
func (s *Service) findCheckpoint(end int) *checkpoint {
	if s.opt.CheckpointInterval <= 0 || end == 0 {
		return nil
	}
	limit := s.opt.CheckpointInterval + MaxEntrySize/s.opt.BlockSize + 64
	for b := end - 1; b >= 0 && b > end-1-limit; b-- {
		parsed, err := s.parseBlock(b)
		if err != nil {
			continue // unreadable block: nothing to find here
		}
		var r blockfmt.RecordView
		for i := parsed.Len() - 1; i >= 0; i-- {
			parsed.Record(i, &r)
			if r.LogID != entrymap.CheckpointID || r.Continued {
				continue
			}
			data, err := s.assemble(b, i, parsed)
			if err != nil {
				continue // torn chain: the crash hit mid-checkpoint
			}
			cp, err := decodeCheckpoint(data)
			if err != nil {
				continue // bad magic or checksum: garbage to skip
			}
			if cp.coveredEnd > b || cp.acc.N() != s.opt.Degree {
				continue // claims blocks beyond itself / wrong geometry
			}
			return cp
		}
	}
	return nil
}

// restoreFromCheckpoint rebuilds the service state from a validated
// checkpoint, replaying only the blocks and catalog records in
// [cp.coveredEnd, end). An error from the catalog snapshot leaves only
// s.cat touched (the caller resets it and falls back to full
// reconstruction); errors after that point are genuine I/O or consistency
// failures the full path would hit too.
func (s *Service) restoreFromCheckpoint(cp *checkpoint, end int) error {
	// 1. Log-file table as of coveredEnd.
	for _, rec := range cp.catalog {
		if err := s.cat.Apply(rec); err != nil {
			return fmt.Errorf("clio: checkpoint catalog snapshot: %w", err)
		}
	}

	// 2. Accumulator: restore the snapshot, then replay the suffix blocks
	// exactly as the live writer would have driven it — advance through
	// each entrymap boundary (the emitted entries are discarded: the dead
	// server either wrote them durably already or they are reconstructible
	// redundancy, same as after a full reconstruction) and note each
	// sealed block's ids.
	s.idxMu.Lock()
	s.acc = cp.acc
	s.idxMu.Unlock()
	s.lastBound = cp.lastBound
	if cp.lastTS > s.lastTS {
		s.lastTS = cp.lastTS
	}
	n := s.opt.Degree
	src := (*locatorSource)(s)
	for b := cp.coveredEnd; b < end; b++ {
		for bnd := (s.lastBound/n + 1) * n; bnd <= b; bnd += n {
			s.idxMu.Lock()
			s.acc.EntriesDue(bnd)
			s.idxMu.Unlock()
			s.lastBound = bnd
		}
		ids, _ := src.BlockIDs(b) // a lost block's ids are simply absent
		s.idxMu.Lock()
		s.acc.NoteBlock(b, ids)
		s.idxMu.Unlock()
		s.recovery.BlocksReplayed++
		s.recovery.EntrymapBlocksScanned++
	}
	s.recovery.CheckpointUsed = true

	// 3. NVRAM-staged tail, as in the full path (catalog records can live
	// in the staged image, so this precedes the catalog replay).
	if err := s.restoreTail(); err != nil {
		return err
	}

	// 4. Catalog and bad-block suffixes. The bad-block list is the
	// checkpoint's list plus anything logged in the replayed suffix,
	// deduped (a slide straddling the checkpoint can be in both).
	if err := s.replayCatalogFrom(cp.coveredEnd); err != nil {
		return err
	}
	seen := make(map[int]bool, len(cp.badBlocks))
	for _, b := range cp.badBlocks {
		seen[b] = true
		s.recovery.BadBlocks = append(s.recovery.BadBlocks, b)
	}
	suffix, err := s.readBadBlocksFrom(cp.coveredEnd)
	if err != nil {
		return err
	}
	for _, b := range suffix {
		if !seen[b] {
			s.recovery.BadBlocks = append(s.recovery.BadBlocks, b)
		}
	}
	return nil
}
