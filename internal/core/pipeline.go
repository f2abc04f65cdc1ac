package core

// Pipelined sealing: with a StagingNVRAM configured (and CommitWindow >= 0)
// a full-block seal does not wait for the write-once device. The sealed
// image is made durable in staging NVRAM — that alone is what the force ack
// depends on — and queued on s.pipe; a background sealer goroutine drains
// the queue head-first, so the device write for batch N overlaps NVRAM
// staging and accumulation for batch N+1.
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
//     (ensureTailLocked drains first; completeHeadLocked emits boundaries a
//     slide pushed the head across before noting it).
//   - a staged image is dropped from NVRAM only after its device write
//     completed, keyed by its enqueue-time global (origGlobal), so a crash
//     anywhere in the pipeline recovers every acked entry from staging
//     (replayStagedSeals).
//
// Damaged blocks discovered by the background write slide the whole
// in-flight window forward (§2.3.2) — the ack already happened, so the
// degradation is recorded in the bad-block log (pendingBad) rather than
// reported to a client.

import (
	"errors"
	"fmt"
	"time"

	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/faults"
	"clio/internal/wodev"
)

// maxPipeline bounds the in-flight seal window: how many sealed blocks may
// be awaiting their device write before the next seal must wait for the
// head to complete.
const maxPipeline = 4

// pendingSeal is one sealed block whose image is durable in staging NVRAM
// but whose device write has not completed.
type pendingSeal struct {
	global     int             // current target global index (slides renumber it)
	origGlobal int             // staging-NVRAM key: the global at enqueue time
	img        []byte          // sealed image (replaced wholesale on reindex, never mutated)
	ids        []uint16        // log-file ids present (for NoteBlock at completion)
	idSet      map[uint16]bool // same ids as a set (for reader snapshots)
}

// stagingNVRAM returns the configured NVRAM's staging extension when the
// pipeline is enabled.
func (s *Service) stagingNVRAM() StagingNVRAM {
	if !s.staging {
		return nil
	}
	nv, _ := s.opt.NVRAM.(StagingNVRAM)
	return nv
}

// enqueueSealLocked seals the staged tail into the pipeline: the image is
// made durable in staging NVRAM (the ack barrier), queued for the
// background device write, and the tail slot freed; s.mu held.
func (s *Service) enqueueSealLocked(forced bool) error {
	if m := s.met(); m != nil {
		defer m.sealLat.ObserveSince(time.Now())
	}
	g := s.tailGlobal
	// Bounded in-flight window: wait for a slot, absorbing a parked error.
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
	if forced {
		s.builder.SetFlags(blockfmt.FlagSealedByForce)
		s.stats.PaddingBytes += int64(s.builder.Free() + 2)
	}
	img := s.builder.Seal()
	// Durability first: the image must be in rewriteable non-volatile
	// storage before anything acks. The device write follows asynchronously.
	ndone := s.tr.Span("core.nvram_store_sealed")
	err := s.storeSealedLocked(g, img)
	ndone()
	if err != nil {
		return fmt.Errorf("clio: stage sealed block: %w", err)
	}
	ids := make([]uint16, 0, len(s.tailIDs))
	for id := range s.tailIDs {
		ids = append(ids, id)
	}
	ps := &pendingSeal{global: g, origGlobal: g, img: img, ids: ids, idSet: s.tailIDs}
	s.pipe = append(s.pipe, ps)
	s.tailGlobal = -1
	s.tailIDs = nil
	s.tailDirty = false
	// The NVRAM tail slot may still hold an earlier image of this block;
	// recovery drops tail slots below the staged-seal frontier, so it need
	// not be cleared here (clearing would cost a store on the hot path).
	s.blockCache().Put(cache.Key{Block: g}, img)
	s.publishTail(nil)
	s.ensureSealerLocked()
	s.sealCond.Broadcast()
	return nil
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

// ensureSealerLocked starts the background sealer if it is not running.
func (s *Service) ensureSealerLocked() {
	if s.sealerOn || s.sealerStop {
		return
	}
	s.sealerOn = true
	go s.sealerLoop()
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
// goroutine, strictly head-first, holding s.mu except around the device
// write itself.
func (s *Service) sealerLoop() {
	s.mu.Lock()
	for {
		for !s.sealerStop && (len(s.pipe) == 0 || s.pipeErr != nil || s.closedFlag.Load()) {
			s.sealCond.Wait()
		}
		if s.sealerStop {
			break
		}
		s.writeHeadLocked(s.pipe[0])
	}
	s.sealerOn = false
	s.sealCond.Broadcast()
	s.mu.Unlock()
}

// writeHeadLocked writes the pipe head to the device, sliding past damaged
// blocks and extending the volume sequence as needed; sealer-only, s.mu
// held (released around the device write). Unexpected errors park in
// s.pipeErr for a foreground operation to absorb.
func (s *Service) writeHeadLocked(ps *pendingSeal) {
	for {
		v, local, err := s.locateForWriteLocked(ps.global)
		if err != nil {
			s.parkPipeErrLocked(err)
			return
		}
		// Footer flags and index are a property of where the block lands,
		// decided now rather than at enqueue: a slide may have renumbered
		// the block, or moved it onto (or off) a volume's final slot.
		img := ps.img
		var orFlags uint8
		if local == v.DataCapacity()-1 {
			orFlags = blockfmt.FlagVolumeSealed
		}
		if orFlags != 0 || imageBlockIndex(img) != uint32(ps.global) {
			img, err = blockfmt.Reindex(ps.img, uint32(ps.global), orFlags)
			if err != nil {
				s.parkPipeErrLocked(err)
				return
			}
		}
		devIdx := v.DeviceBlock(local)
		s.mu.Unlock()
		werr := func() (werr error) {
			defer func() {
				// A crash-injection panic on the sealer is converted into a
				// parked error + closed service: the "process" died mid
				// device write, exactly what replayStagedSeals recovers.
				if r := recover(); r != nil {
					c, ok := r.(faults.Crash)
					if !ok {
						panic(r)
					}
					werr = c
				}
			}()
			return s.writeTailBlockLocked(v, devIdx, img)
		}()
		s.mu.Lock()
		var crash faults.Crash
		switch {
		case errors.As(werr, &crash):
			s.closedFlag.Store(true)
			s.parkPipeErrLocked(werr)
			return
		case werr == nil:
			ps.img = img // final image, as landed
			s.completeHeadLocked(ps)
			return
		case errors.Is(werr, wodev.ErrCorrupt) || transientExhausted(werr):
			if ierr := v.Dev.Invalidate(devIdx); ierr != nil {
				s.parkPipeErrLocked(fmt.Errorf("clio: invalidate damaged block: %w", ierr))
				return
			}
			s.slidePipeLocked(ps, werr)
		case errors.Is(werr, wodev.ErrFull):
			if err := s.extendLocked(); err != nil {
				s.parkPipeErrLocked(err)
				return
			}
		default:
			s.parkPipeErrLocked(fmt.Errorf("clio: seal block %d: %w", ps.global, werr))
			return
		}
	}
}

// parkPipeErrLocked records a pipeline failure and wakes anyone waiting on
// the barrier.
func (s *Service) parkPipeErrLocked(err error) {
	s.pipeErr = err
	s.sealCond.Broadcast()
}

// completeHeadLocked retires the head after its device write: entrymap
// bookkeeping, frontier advance, snapshot republication, and only then the
// staged image's drop from NVRAM (the durability hand-over).
func (s *Service) completeHeadLocked(ps *pendingSeal) {
	s.pipe = s.pipe[1:]
	// A slide may have pushed this block across an entrymap boundary it was
	// not across at enqueue; emit it before NoteBlock so the note lands in
	// the new span. Everything below ps.global has completed, so the
	// accumulator state is exactly the boundary's prefix.
	s.emitDueLocked(ps.global)
	s.idxMu.Lock()
	s.acc.NoteBlock(ps.global, ps.ids)
	s.idxMu.Unlock()
	s.stats.BlocksSealed++
	s.stats.FooterBytes += blockfmt.FooterSize
	s.pipelinedSeals.Add(1)
	s.sealedEnd = ps.global + 1
	s.blockCache().Put(cache.Key{Block: ps.global}, ps.img)
	s.publishTail(nil)
	if nv := s.stagingNVRAM(); nv != nil {
		if err := nv.DropSealed(ps.origGlobal); err != nil {
			s.parkPipeErrLocked(fmt.Errorf("clio: drop staged seal: %w", err))
			return
		}
	}
	s.sealCond.Broadcast()
}

// slidePipeLocked invalidates the head's damaged target block and slides
// the entire in-flight window (and the staged tail behind it) one block
// forward (§2.3.2). The entries were acked when staged, so the degradation
// is recorded durably via the bad-block log instead of a DegradedError.
func (s *Service) slidePipeLocked(ps *pendingSeal, cause error) {
	dead := ps.global
	s.pendingBad = append(s.pendingBad, dead)
	s.badBlocks = append(s.badBlocks, dead)
	s.pendingDegraded = append(s.pendingDegraded, dead)
	s.pendingDegradedCause = cause
	s.stats.DeadBlocks++
	last := dead
	for _, p := range s.pipe {
		p.global++
		last = p.global
	}
	if s.tailGlobal >= 0 {
		s.tailGlobal++
		s.builder.SetBlockIndex(uint32(s.tailGlobal))
		last = s.tailGlobal
	}
	// The slide may cross an entrymap boundary for the head; blocks below
	// it are all complete, so emitting now is safe (renumbered followers
	// are covered the same way when they complete).
	s.emitDueLocked(ps.global)
	// Every renumbered block's old cache slot is stale; invalidate the
	// whole shifted range (readers find the blocks in the published
	// snapshot until their device writes complete).
	for g := dead; g <= last; g++ {
		s.blockCache().Invalidate(cache.Key{Block: g})
	}
	s.publishTail(nil)
}

// imageBlockIndex reads the footer block index of a sealed image.
func imageBlockIndex(img []byte) uint32 {
	foot := img[len(img)-blockfmt.FooterSize:]
	return uint32(foot[14]) | uint32(foot[15])<<8 | uint32(foot[16])<<16 | uint32(foot[17])<<24
}

// storeSealedLocked stages a sealed image to staging NVRAM with transient
// faults retried (same fault point as the tail store: both are NVRAM-write
// durability barriers).
func (s *Service) storeSealedLocked(global int, img []byte) error {
	nv := s.stagingNVRAM()
	return s.retry.Do(func() error {
		if ferr := s.opt.Faults.Fire(FaultNVRAMStore); ferr != nil {
			return ferr
		}
		return nv.StoreSealed(global, img)
	})
}
