package core

// Sealing: the one routine that moves a full (or force-padded) tail block to
// the write-once device, and the two ways it is driven. Which one runs is a
// capability of the configured NVRAM, not an option:
//
//   - Options.NVRAM implements StagingNVRAM: the seal is pipelined. The
//     sealed image is made durable in staging NVRAM — that alone is what the
//     force ack depends on — and queued on s.pipe; a background sealer
//     goroutine drains the queue head-first, so the device write for batch N
//     overlaps NVRAM staging and accumulation for batch N+1.
//   - otherwise (no NVRAM, or one without staging slots): the foreground
//     writes the block inline, s.mu held, and the seal's error is the
//     operation's error.
//
// Either way the block is a pendingSeal handed to writeSealLocked, which
// owns locate → footer index/FlagVolumeSealed → device write → {done |
// damaged: invalidate and slide (§2.3.2) | full: extend (§2.1)}. Recovery
// places staged images through the same loop (replayStagedSeals).
//
// Invariants the pipeline maintains:
//
//   - pipe globals are contiguous: pipe = [sealedEnd, sealedEnd+1, ...],
//     with the staged tail (if any) at the next global after the pipe.
//   - completions are strictly in order (only the head is ever written), so
//     Force acks, checkpoint emission, crash-recovery ordering and the
//     cluster replication stream all observe seals in device order.
//   - the entrymap accumulator covers exactly [0, sealedEnd) at any instant
//     under s.mu: NoteBlock is deferred to completion, and a due entrymap
//     boundary is never emitted while a block below it is still in flight
//     (ensureTailLocked drains first; completeSealLocked emits boundaries a
//     slide pushed the block across before noting it).
//   - a staged image is dropped from NVRAM only after its device write
//     completed, keyed by its enqueue-time global (origGlobal), so a crash
//     anywhere in the pipeline recovers every acked entry from staging
//     (replayStagedSeals).
//
// A damaged block slides everything not yet on the device one block forward
// (§2.3.2). The dead block is queued for the bad-block log (pendingBad) and
// for the DegradedError of whichever operation completes next — the sliding
// operation itself when the seal is inline, a later one when the ack
// preceded the background write. pendingBad is written by flushDueLocked:
// at the sliding append's chain completion, or, for a seal outside any
// append, by the operation that ran it (forceLocked's padded seal, or
// Close, which also picks up what a background slide left queued).

import (
	"errors"
	"fmt"
	"time"

	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/faults"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// maxPipeline bounds the in-flight seal window: how many sealed blocks may
// be awaiting their device write before the next seal must wait for the
// head to complete.
const maxPipeline = 4

// pendingSeal is one sealed block image on its way to the device.
type pendingSeal struct {
	global     int      // current target global index (slides renumber it)
	origGlobal int      // staging-NVRAM key: the global at enqueue time
	img        []byte   // sealed image (replaced wholesale on reindex, never mutated)
	ids        []uint16 // log-file ids present (NoteBlock at completion, reader snapshots)
}

// sealTailLocked seals the staged tail: pipelined through staging NVRAM
// when the configured NVRAM has it, otherwise straight to the device.
// forced marks a block sealed early (padded) to satisfy a synchronous write
// without an NVRAM tail; s.mu held.
func (s *Service) sealTailLocked(forced bool) error {
	if s.tailGlobal < 0 {
		return nil
	}
	if m := s.met(); m != nil {
		defer m.sealLat.ObserveSince(time.Now())
	}
	if s.staging == nil {
		return s.sealInlineLocked(s.closeTailLocked(forced))
	}
	// Bounded in-flight window: wait for a slot, absorbing a parked error.
	g := s.tailGlobal
	for len(s.pipe) >= maxPipeline && s.pipeErr == nil && !s.closedFlag.Load() {
		s.sealCond.Wait()
	}
	if err := s.takePipeErrLocked(); err != nil {
		return err
	}
	if s.closedFlag.Load() {
		return ErrClosed
	}
	if s.tailGlobal != g {
		// The wait released s.mu and a competing appender sealed this tail
		// (globals never repeat). Its image is already staged — durable — so
		// this seal's work is done.
		return nil
	}
	ps := s.closeTailLocked(forced)
	// Durability first: the image must be in rewriteable non-volatile
	// storage before anything acks. The device write follows asynchronously.
	ndone := s.tr.Span("core.nvram_store_sealed")
	err := s.nvramStoreLocked(func() error { return s.staging.StoreSealed(g, ps.img) })
	ndone()
	if err != nil {
		return fmt.Errorf("clio: stage sealed block: %w", err)
	}
	s.pipe = append(s.pipe, ps)
	s.repipeLocked()
	s.tailGlobal, s.tailDirty = -1, false
	// The NVRAM tail slot may still hold an earlier image of this block;
	// recovery drops tail slots below the staged-seal frontier, so it need
	// not be cleared here (clearing would cost a store on the hot path).
	// Readers find the block in the snapshot's pipe until its device write
	// completes; only then does its image enter the cache.
	s.publishTail(nil)
	if !s.sealerOn && !s.sealerStop {
		s.sealerOn = true
		go s.sealerLoop()
	}
	s.sealCond.Broadcast()
	return nil
}

// closeTailLocked turns the tail's builder into the sealed image on its way
// to the device, in the builder's own buffer: the next tail gets a fresh
// one (ensureTailLocked). The tail itself stays staged until the caller
// retires it; an inline seal that fails drops the image, and the tail goes
// on taking records.
func (s *Service) closeTailLocked(forced bool) *pendingSeal {
	if forced {
		s.builder.SetFlags(blockfmt.FlagSealedByForce)
		s.stats.PaddingBytes += int64(s.builder.Free() + 2)
	}
	return &pendingSeal{global: s.tailGlobal, origGlobal: s.tailGlobal, img: s.builder.Finish(), ids: s.tailIDs}
}

// sealInlineLocked writes the tail's block from the foreground, s.mu held
// throughout. The tail stays the tail (readable, and retried by the next
// operation on error) until its block is on the device; a crash-injection
// panic unwinds to the caller.
func (s *Service) sealInlineLocked(ps *pendingSeal) error {
	err := s.writeSealLocked(ps, func(v *volume.Volume, devIdx int, img []byte) error {
		defer s.tr.Span("wodev.write")()
		return s.writeTailBlockLocked(v, devIdx, img)
	})
	if err != nil {
		return err
	}
	s.tailGlobal, s.tailDirty = -1, false
	s.completeSealLocked(ps)
	if s.opt.NVRAM != nil {
		if err := s.opt.NVRAM.Clear(); err != nil {
			return fmt.Errorf("clio: nvram clear: %w", err)
		}
	}
	return nil
}

// writeSealLocked puts one sealed image on the write-once device at
// ps.global, sliding past damaged blocks and extending the volume sequence
// as needed; on return ps.global and ps.img are the block as landed and the
// caller completes the seal. s.mu held. write is the device-write step, the
// one thing the callers do differently: the foreground and recovery keep
// s.mu, the sealer (whose acks already happened) releases it.
func (s *Service) writeSealLocked(ps *pendingSeal, write func(v *volume.Volume, devIdx int, img []byte) error) error {
	for {
		v, local, err := s.locateForWriteLocked(ps.global)
		if err != nil {
			return err
		}
		// Footer flags and index are a property of where the block lands,
		// decided now rather than when it was sealed: a slide may have
		// renumbered the block, or moved it onto (or off) a volume's final
		// slot, which readers (and operators) must see continues on a
		// successor (§2.1).
		img := ps.img
		var orFlags uint8
		if local == v.DataCapacity()-1 {
			orFlags = blockfmt.FlagVolumeSealed
		}
		if orFlags != 0 || imageBlockIndex(img) != uint32(ps.global) {
			if img, err = blockfmt.Reindex(ps.img, uint32(ps.global), orFlags); err != nil {
				return fmt.Errorf("clio: sealed image for block %d: %w", ps.global, err)
			}
		}
		devIdx := v.DeviceBlock(local)
		werr := write(v, devIdx, img)
		switch {
		case werr == nil:
			ps.img = img
			return nil
		case errors.Is(werr, wodev.ErrCorrupt) || transientExhausted(werr):
			// The target block was damaged while unwritten — or kept failing
			// transiently past the retry budget, which the service treats
			// identically: invalidate it and slide to the next block (§2.3.2).
			if ierr := v.Dev.Invalidate(devIdx); ierr != nil {
				return fmt.Errorf("clio: invalidate damaged block: %w", ierr)
			}
			s.slideLocked(ps, werr)
		case errors.Is(werr, wodev.ErrFull):
			if err := s.extendLocked(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("clio: seal block %d: %w", ps.global, werr)
		}
	}
}

// slideLocked moves everything not yet on the device — ps, the in-flight
// window behind it and the staged tail — one block forward past ps's dead
// target (§2.3.2). ps is the pipe head, or with an empty pipe the tail's own
// image (inline seal) or a replayed one (recovery).
func (s *Service) slideLocked(ps *pendingSeal, cause error) {
	dead := ps.global
	s.pendingBad = append(s.pendingBad, dead)
	s.badBlocks = append(s.badBlocks, dead)
	s.degraded = append(s.degraded, dead)
	s.degradedCause = cause
	s.stats.DeadBlocks++
	ps.global++
	for _, p := range s.pipe {
		if p != ps {
			p.global++
		}
	}
	if s.tailGlobal >= 0 {
		s.tailGlobal++
		s.builder.SetBlockIndex(uint32(s.tailGlobal))
	}
	// The cache holds none of the shifted range (nothing in it is on the
	// device yet): readers find the blocks in the snapshot until their
	// device writes complete.
	s.repipeLocked()
	s.publishTail(nil)
}

// completeSealLocked retires a live seal after its device write: entrymap
// bookkeeping, stats, frontier advance, and the final image into the cache
// before the snapshot that promises it. The caller has already taken the
// block out of the tail or pipe.
func (s *Service) completeSealLocked(ps *pendingSeal) {
	// A slide may have pushed this block across an entrymap boundary it was
	// not across when its tail was opened; emit it before NoteBlock so the
	// note lands in the new span (the entries queue as displaced, §2.3.2).
	// Everything below ps.global has completed, so the accumulator state is
	// exactly the boundary's prefix.
	s.emitDueLocked(ps.global)
	s.idxMu.Lock()
	s.acc.NoteBlock(ps.global, ps.ids)
	s.idxMu.Unlock()
	s.stats.BlocksSealed++
	s.stats.FooterBytes += blockfmt.FooterSize
	s.sealedEnd = ps.global + 1
	s.blockCache().Put(cache.Key{Block: ps.global}, ps.img) // the image as landed, never written again
	s.publishTail(nil)
}

// takePipeErrLocked absorbs a parked pipeline error into the calling
// foreground operation, waking the sealer to retry the head; after a
// crash-injection panic the error stays parked (the service is closed).
func (s *Service) takePipeErrLocked() error {
	if s.pipeErr == nil {
		return nil
	}
	err := s.pipeErr
	if !s.closedFlag.Load() {
		s.pipeErr = nil
		s.sealCond.Broadcast()
	}
	return err
}

// drainPipeLocked is the completion barrier: it returns once every
// in-flight pipelined seal has reached the device, or surfaces the parked
// error of a failed one; s.mu held (released while waiting).
func (s *Service) drainPipeLocked() error {
	for len(s.pipe) > 0 {
		if s.pipeErr != nil {
			return s.takePipeErrLocked()
		}
		if !s.sealerOn || s.sealerStop {
			return errors.New("clio: pipelined seals pending with no sealer")
		}
		s.sealCond.Wait()
	}
	return s.takePipeErrLocked()
}

// stopSealerLocked asks the sealer to exit and waits for it; s.mu held
// (released while waiting). In-flight work is NOT drained — Close drains
// first, Crash deliberately abandons it.
func (s *Service) stopSealerLocked() {
	s.sealerStop = true
	s.sealCond.Broadcast()
	for s.sealerOn {
		s.sealCond.Wait()
	}
}

// sealerLoop is the background device-write stage of the pipeline: one
// goroutine, strictly head-first. A failure parks in s.pipeErr for a
// foreground operation to absorb (takePipeErrLocked).
func (s *Service) sealerLoop() {
	s.mu.Lock()
	for {
		for !s.sealerStop && (len(s.pipe) == 0 || s.pipeErr != nil || s.closedFlag.Load()) {
			s.sealCond.Wait()
		}
		if s.sealerStop {
			break
		}
		s.pipeErr = s.sealHeadLocked(s.pipe[0])
		s.sealCond.Broadcast()
	}
	s.sealerOn = false
	s.sealCond.Broadcast()
	s.mu.Unlock()
}

// sealHeadLocked writes and retires the pipe head; the staged image's drop
// from NVRAM comes last (the durability hand-over).
func (s *Service) sealHeadLocked(ps *pendingSeal) error {
	if err := s.writeSealLocked(ps, s.writeUnlocked); err != nil {
		var crash faults.Crash
		if errors.As(err, &crash) {
			s.closedFlag.Store(true)
		}
		return err
	}
	s.pipe = s.pipe[1:]
	s.repipeLocked()
	s.completeSealLocked(ps)
	s.pipelinedSeals.Add(1)
	if err := s.staging.DropSealed(ps.origGlobal); err != nil {
		return fmt.Errorf("clio: drop staged seal: %w", err)
	}
	return nil
}

// writeUnlocked is the sealer's device-write step: s.mu is released around
// the write so appends keep staging behind it, and a crash-injection panic
// (the "process" died mid device write — exactly what replayStagedSeals
// recovers) becomes the seal's error, since there is no caller to unwind to.
func (s *Service) writeUnlocked(v *volume.Volume, devIdx int, img []byte) (err error) {
	s.mu.Unlock()
	defer s.mu.Lock()
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(faults.Crash)
			if !ok {
				panic(r)
			}
			err = c
		}
	}()
	return s.writeTailBlockLocked(v, devIdx, img)
}

// imageBlockIndex reads the footer block index of a sealed image.
func imageBlockIndex(img []byte) uint32 {
	foot := img[len(img)-blockfmt.FooterSize:]
	return uint32(foot[14]) | uint32(foot[15])<<8 | uint32(foot[16])<<16 | uint32(foot[17])<<24
}
