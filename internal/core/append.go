package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"clio/internal/blockfmt"
	"clio/internal/catalog"
	"clio/internal/entrymap"
	"clio/internal/obs"
	"clio/internal/volume"
	"clio/internal/wire"
)

// AppendOptions controls one append.
type AppendOptions struct {
	// Timestamped selects the full 14-byte header carrying a 64-bit
	// timestamp, which uniquely identifies the entry and lets it be located
	// by time later (§2.1). The minimal 4-byte header is used otherwise.
	Timestamped bool
	// Forced makes the write synchronous: when Append returns, the entry is
	// durable — staged to the NVRAM tail, or, without one, sealed to the
	// device in a padded block (§2.3.1). Forced entries always carry a
	// timestamp, which the client obtains as a consequence of the write.
	Forced bool
	// Trace, when set, receives spans for the append's interesting steps:
	// group-commit wait and commit, device write, NVRAM store. A forced
	// append committed as a rider gets the leader's commit spans grafted on,
	// since that shared work is where its latency went. Nil records nothing.
	Trace *obs.Trace
}

// Append writes one entry to the given log file and returns the entry's
// server timestamp (the time the logging service received it).
func (s *Service) Append(id uint16, data []byte, opts AppendOptions) (int64, error) {
	return s.appendClient([]uint16{id}, data, opts)
}

// AppendMulti writes one entry belonging to several log files at once —
// §2.1: "the logging service allows a log entry to be a member of more than
// one log file". The entry appears in every listed log file (and their
// ancestors); ids[0] is the entry's primary id. Multi-member entries always
// carry the full timestamped header.
func (s *Service) AppendMulti(ids []uint16, data []byte, opts AppendOptions) (int64, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("clio: AppendMulti needs at least one log file")
	}
	if len(ids)-1 > blockfmt.MaxExtraIDs {
		return 0, fmt.Errorf("clio: %d member log files exceeds maximum %d",
			len(ids), blockfmt.MaxExtraIDs+1)
	}
	return s.appendClient(ids, data, opts)
}

func (s *Service) appendClient(ids []uint16, data []byte, opts AppendOptions) (int64, error) {
	if m := s.met(); m != nil {
		defer m.appendLat.ObserveSince(time.Now())
	}
	return s.appendClientInner(ids, data, opts)
}

func (s *Service) appendClientInner(ids []uint16, data []byte, opts AppendOptions) (int64, error) {
	if opts.Forced {
		return s.appendForcedBatched(ids, data, opts)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr = opts.Trace
	defer func() { s.tr = nil }()
	ts, err := s.appendOneLocked(ids, data, opts)
	if err != nil {
		return 0, err
	}
	// The entry is readable once the tail is republished: a view of the
	// builder, nothing sealed or copied (publishTail).
	s.publishTail(nil)
	if err := s.maybeCheckpointLocked(); err != nil {
		return 0, err
	}
	// A non-nil *DegradedError still means the entry is durable at ts; the
	// service relocated past damaged blocks to complete it (§2.3.2).
	return ts, s.takeDegradedLocked().at(ts)
}

// appendOneLocked validates and appends one client entry under s.mu,
// performing every per-entry stat update. How the entry becomes durable
// (staged vs forced) is the caller's business.
func (s *Service) appendOneLocked(ids []uint16, data []byte, opts AppendOptions) (int64, error) {
	if s.closedFlag.Load() {
		return 0, ErrClosed
	}
	if len(data) > MaxEntrySize {
		return 0, fmt.Errorf("%w: %d > %d bytes", ErrEntryTooLarge, len(data), MaxEntrySize)
	}
	for i, id := range ids {
		if slices.Contains(ids[:i], id) {
			return 0, fmt.Errorf("clio: duplicate member id %d", id)
		}
		system, retired, err := s.cat.Flags(id)
		if err != nil {
			return 0, err
		}
		if system || retired {
			return 0, s.unwritableErr(id, system)
		}
	}
	form := uint8(blockfmt.FormMinimal)
	var attr uint8
	if opts.Timestamped || opts.Forced {
		form = blockfmt.FormFull
	}
	var extras []uint16
	if len(ids) > 1 {
		form = blockfmt.FormMulti
		extras = ids[1:]
	}
	if opts.Forced {
		attr |= blockfmt.AttrForced
	}
	// Take the chain guard before the timestamp: a parked foreign chain would
	// otherwise let a later-stamped append overtake this one into the log,
	// breaking the block-order monotonicity of first timestamps.
	s.awaitChainLocked()
	ts := s.nextTS()
	if _, _, err := s.appendEntryLocked(ids[0], extras, data, form, attr, ts, false); err != nil {
		return 0, err
	}
	if form != blockfmt.FormMinimal {
		s.stats.Timestamps++
	}
	s.stats.EntriesAppended++
	s.stats.ClientBytes += int64(len(data))
	s.stats.HeaderBytes += int64(blockfmt.HeaderLen(form) + 2*len(extras) + 2)
	return ts, nil
}

// unwritableErr is the error of an append to a system or retired log file.
func (s *Service) unwritableErr(id uint16, system bool) error {
	d, err := s.cat.Get(id)
	if err != nil {
		return err
	}
	if system {
		return fmt.Errorf("%w: %q", ErrSystemLog, d.Name)
	}
	return fmt.Errorf("clio: %w: %q", catalog.ErrRetired, d.Name)
}

// forceReq is one forced append parked on a (possibly shared) group commit.
type forceReq struct {
	ids  []uint16
	data []byte
	opts AppendOptions
	ts   int64
	err  error
	done chan struct{}
}

// Adaptive commit-window bounds. The window never holds a batch longer than
// one observed commit (so waiting can only help throughput, never double
// latency), and windowCap keeps a slow-device estimate from stalling forces
// for longer than any reasonable force latency target.
const (
	windowFloor = 50 * time.Microsecond
	windowCap   = 2 * time.Millisecond
)

// ewmaUpdate folds one sample into an exponentially weighted moving average
// with decay 1/8, lock-free. A zero average seeds from the first sample.
func ewmaUpdate(a *atomic.Int64, sample int64) {
	for {
		old := a.Load()
		next := sample
		if old != 0 {
			next = old + (sample-old)/8
		}
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// noteArrival tracks the inter-arrival time of forced appends; the gather
// window divides observed commit latency by this to size its batches.
func (s *Service) noteArrival() {
	now := time.Now().UnixNano()
	prev := s.lastArrival.Swap(now)
	if prev != 0 {
		ewmaUpdate(&s.arrivalEWMA, now-prev)
	}
}

// drainForceQ atomically takes the queued force requests.
func (s *Service) drainForceQ() []*forceReq {
	s.forceQMu.Lock()
	batch := s.forceQ
	s.forceQ = nil
	s.forceQMu.Unlock()
	return batch
}

// gatherForce optionally holds the leader's batch open to collect more
// riders before committing. The target batch size is the number of arrivals
// expected during one commit (commit latency / inter-arrival time), and the
// leader waits at most one commit's worth of time to reach it. A lone writer
// (arrivals slower than half the commit latency) commits immediately, so the
// idle-path latency is untouched; a storm coalesces into near-ideal batches
// instead of the convoy the bare leader/rider queue forms.
func (s *Service) gatherForce(batch []*forceReq) []*forceReq {
	commit := s.commitEWMA.Load()
	inter := s.arrivalEWMA.Load()
	if commit < int64(windowFloor) || inter == 0 || inter*2 > commit {
		return batch
	}
	target := int(commit / inter)
	if target <= len(batch) {
		return batch
	}
	window := min(time.Duration(commit), windowCap)
	s.adaptiveWaits.Add(1)
	s.windowNanos.Store(int64(window))
	timer := time.NewTimer(window)
	defer timer.Stop()
	for len(batch) < target {
		select {
		case <-s.forceSig:
			batch = append(batch, s.drainForceQ()...)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// noteBatch records one committed batch's size in the power-of-two histogram
// (buckets 1, 2, 4, ..., ≥256) and the exported metrics histogram.
func (s *Service) noteBatch(n int) {
	b := 0
	for v := n; v > 1 && b < len(s.batchHist)-1; v >>= 1 {
		b++
	}
	s.batchHist[b].Add(1)
	if m := s.met(); m != nil {
		m.batchEntries.Observe(time.Duration(n))
	}
}

// appendForcedBatched is the group-commit front door for forced appends
// (§2.3.1's per-force seal/NVRAM cost amortized across concurrent clients):
// the request enqueues, then contends for leaderMu. Whoever wins drains the
// whole queue, appends every queued entry and performs ONE forceLocked for
// the batch; requests that arrive while a leader is inside its commit ride
// with the next leader. A request that finds its done channel already closed
// was committed as a rider and returns immediately. With a single client the
// batch always has one request and the behavior (timestamps, stats, device
// traffic) is exactly that of an individual forced append.
func (s *Service) appendForcedBatched(ids []uint16, data []byte, opts AppendOptions) (int64, error) {
	s.noteArrival()
	// The request outlives the caller's frame only on this path: ids is
	// cloned here so that an unforced append's id list stays on its stack.
	req := &forceReq{ids: slices.Clone(ids), data: data, opts: opts, done: make(chan struct{})}
	s.forceQMu.Lock()
	s.forceQ = append(s.forceQ, req)
	s.forceQMu.Unlock()
	// Nudge a leader holding its commit window open; non-blocking because the
	// single-slot channel only needs to be "signaled", not counted.
	select {
	case s.forceSig <- struct{}{}:
	default:
	}
	s.leaderMu.Lock()
	func() {
		defer s.leaderMu.Unlock()
		select {
		case <-req.done:
			// Already served as a rider in the previous leader's batch.
		default:
			s.runForceBatch()
		}
	}()
	waitDone := opts.Trace.Span("core.group_commit_wait")
	<-req.done
	waitDone()
	return req.ts, req.err
}

// runForceBatch drains the force queue and commits it as one batch; the
// caller holds leaderMu. Every append and the single force run under s.mu,
// so batched work serializes with unforced appends exactly like individual
// writes would. Degraded-relocation notices (§2.3.2) accumulate across the
// batch and are delivered to each request with its own timestamp.
func (s *Service) runForceBatch() {
	batch := s.drainForceQ()
	if len(batch) == 0 {
		return
	}
	batch = s.gatherForce(batch)
	if len(batch) > 1 {
		s.groupCommits.Add(1)
		s.batchedForces.Add(int64(len(batch)))
	}
	s.noteBatch(len(batch))
	// When any request in the batch is traced, the leader records the shared
	// commit once on a batch trace and grafts its spans onto every traced
	// rider afterwards — the commit IS where a rider's latency went.
	var batchTr *obs.Trace
	var commitStart time.Time
	for _, req := range batch {
		if req.opts.Trace != nil {
			commitStart = time.Now()
			batchTr = &obs.Trace{Op: "core.commit_batch", Start: commitStart}
			break
		}
	}
	completed := false
	defer func() {
		if completed {
			return
		}
		// A crash-injection panic unwound the commit partway: the in-memory
		// state is no longer trustworthy. Mark the service closed, release
		// every parked request, and re-raise for the leader's caller.
		r := recover()
		s.closedFlag.Store(true)
		for _, req := range batch {
			select {
			case <-req.done:
			default:
				req.ts, req.err = 0, ErrClosed
				close(req.done)
			}
		}
		if r != nil {
			panic(r)
		}
	}()
	cstart := time.Now()
	s.mu.Lock()
	func() {
		defer s.mu.Unlock()
		s.tr = batchTr
		defer func() { s.tr = nil }()
		committed := false
		for _, req := range batch {
			req.ts, req.err = s.appendOneLocked(req.ids, req.data, req.opts)
			if req.err == nil {
				s.stats.ForcedWrites++
				committed = true
			}
		}
		var ferr error
		if committed {
			m := s.met()
			var fstart time.Time
			if m != nil {
				fstart = time.Now()
			}
			ferr = s.forceLocked()
			if m != nil {
				m.forceLat.ObserveSince(fstart)
			}
		}
		degraded := s.takeDegradedLocked()
		for _, req := range batch {
			if req.err != nil {
				continue
			}
			if ferr != nil {
				req.ts, req.err = 0, ferr
			} else {
				req.err = degraded.at(req.ts)
			}
		}
		if committed && ferr == nil {
			// The batch is durable at this point, so a failing checkpoint
			// emission must not be reported as a failed append; the device
			// fault resurfaces on the next operation.
			_ = s.maybeCheckpointLocked()
		}
	}()
	// The gather window sizes batches as commit latency over inter-arrival
	// time; this measured section is the "commit latency".
	ewmaUpdate(&s.commitEWMA, time.Since(cstart).Nanoseconds())
	if batchTr != nil {
		commitDur := time.Since(commitStart)
		spans := batchTr.Spans()
		for _, req := range batch {
			rt := req.opts.Trace
			if rt == nil {
				continue
			}
			// Span offsets are relative to each trace's own start; shift the
			// batch-relative offsets into the rider's frame. The graft happens
			// before close(req.done), so the channel's happens-before makes it
			// visible to the woken rider without extra synchronization.
			shift := commitStart.Sub(rt.Start)
			rt.Add(obs.Span{Name: "core.group_commit", Start: shift, Duration: commitDur})
			for _, sp := range spans {
				rt.Add(obs.Span{Name: sp.Name, Start: sp.Start + shift, Duration: sp.Duration})
			}
		}
	}
	for _, req := range batch {
		close(req.done)
	}
	completed = true
}

// Force makes everything appended so far durable (a group commit). A force
// that finds the staged tail already durable — or nothing staged at all —
// performs no device or NVRAM work and is not counted as a forced write.
func (s *Service) Force() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return ErrClosed
	}
	if s.tailGlobal < 0 || !s.tailDirty {
		return nil
	}
	s.stats.ForcedWrites++
	m := s.met()
	var fstart time.Time
	if m != nil {
		fstart = time.Now()
	}
	err := s.forceLocked()
	if m != nil {
		m.forceLat.ObserveSince(fstart)
	}
	if err != nil {
		return err
	}
	if err := s.maybeCheckpointLocked(); err != nil {
		return err
	}
	return s.takeDegradedLocked().at(s.lastTS)
}

// awaitChainLocked blocks until no other appender is mid-chain. The
// pipeline's wait points (slot wait, completion barrier) release s.mu, so a
// fragmented append can be parked with its chain incomplete while another
// operation acquires the lock; interleaving records then would split the
// chain across non-consecutive blocks, which readers cannot reassemble.
// Without a staging NVRAM nothing ever parks mid-chain, so this never waits.
func (s *Service) awaitChainLocked() {
	for s.midChain {
		s.sealCond.Wait()
	}
}

// endChainLocked marks the in-progress chain complete and wakes appenders
// parked on it.
func (s *Service) endChainLocked() {
	s.midChain = false
	s.sealCond.Broadcast()
}

// appendEntryLocked writes one entry, fragmenting it over blocks as needed
// and flushing pending entrymap entries at chain completion. extras lists
// additional member log files (FormMulti, first fragment only). It returns
// the global block and record slot where the entry's first fragment landed.
// footNow stamps any block this entry opens with a fresh footer timestamp
// instead of the entry's own ts — the compactor appends copies that keep
// their original (old) record timestamps, and the footer monotonicity
// recovery and scrubbing rely on must not regress.
func (s *Service) appendEntryLocked(id uint16, extras []uint16, data []byte, form, attr uint8, ts int64, footNow bool) (int, int, error) {
	remaining := data
	first := true
	frag := 0 // the fragment the loop appends next
	block, recIdx := -1, -1
	s.awaitChainLocked()
	s.midChain = true
	for {
		if err := s.ensureTailLocked(); err != nil {
			s.endChainLocked()
			return 0, 0, err
		}
		f, a := form, attr
		continued := !first
		recExtras := extras
		if continued {
			f, a, recExtras = blockfmt.FormMinimal, 0, nil
		}
		headerLen := blockfmt.HeaderLen(f) + 2*len(recExtras)
		avail := s.builder.Free() - headerLen
		canPlace := avail >= 1
		if len(remaining) == 0 {
			canPlace = avail >= 0
		}
		if !canPlace {
			// No room for even a header (or one data byte): seal and retry
			// in a fresh block.
			if err := s.sealTailLocked(false); err != nil {
				s.endChainLocked()
				return 0, 0, err
			}
			continue
		}
		take := len(remaining)
		continues := false
		if take > avail {
			take = avail
			continues = true
		}
		// The block footer's first-entry timestamp is mandatory even for
		// minimal headers (§2.1); a block opened by a continuation fragment
		// inherits the entry's timestamp.
		if _, ok := s.builder.FirstTimestamp(); !ok {
			stamp := ts
			if footNow {
				stamp = s.nextTS()
			}
			s.builder.SetFirstTimestamp(stamp)
		}
		rec := blockfmt.Record{
			LogID:     id,
			Form:      f,
			AttrFlags: a,
			Timestamp: ts,
			Continued: continued,
			Continues: continues,
			Data:      remaining[:take],
			ExtraIDs:  recExtras,
		}
		if err := s.builder.Append(rec); err != nil {
			s.endChainLocked()
			return 0, 0, fmt.Errorf("clio: append record: %w", err)
		}
		if first {
			block, recIdx = s.tailGlobal, s.builder.Count()-1
		}
		s.tailDirty = true
		s.noteTailIDLocked(id)
		for _, ex := range recExtras {
			s.noteTailIDLocked(ex)
		}
		if continued {
			s.builder.SetFlags(blockfmt.FragmentFlags(frag))
		}
		frag++
		remaining = remaining[take:]
		first = false
		if continues {
			// Fragment filled the block exactly; seal it and continue the
			// chain as the first same-id record of the next block.
			if err := s.sealTailLocked(false); err != nil {
				s.endChainLocked()
				return 0, 0, err
			}
			continue
		}
		break
	}
	s.endChainLocked()
	if err := s.flushDueLocked(); err != nil {
		return 0, 0, err
	}
	return block, recIdx, s.flushSnapshotLocked()
}

// ensureTailLocked makes sure a tail block is staged, emitting the entrymap
// entries due at any boundary crossed and publishing the new (empty) tail to
// the reader snapshot.
func (s *Service) ensureTailLocked() error {
	// Pipeline barrier: a due entrymap boundary must not be emitted while a
	// block below it is still in flight (its NoteBlock has not happened),
	// so drain the pipe first. Slides during the drain can move the
	// frontier, hence the re-check; completions during the drain emit their
	// own crossed boundaries, so this usually exits after one pass.
	n := s.opt.Degree
	for s.tailGlobal < 0 && len(s.pipe) > 0 && (s.lastBound/n+1)*n <= s.endLocked() {
		if err := s.drainPipeLocked(); err != nil {
			return err
		}
	}
	if s.tailGlobal >= 0 {
		return nil
	}
	g := s.endLocked()
	if s.builder == nil {
		b, err := blockfmt.NewBuilder(s.opt.BlockSize, uint32(g))
		if err != nil {
			return err
		}
		s.builder = b
	} else {
		s.builder.Reset(uint32(g))
	}
	s.tailGlobal = g
	s.clearTailIDsLocked()
	s.emitDueLocked(g)
	s.publishTail(nil)
	return nil
}

// emitDueLocked runs the accumulator for every boundary in (lastBound, g]
// and queues the resulting entrymap entries for writing. The accumulator is
// shared with the lock-free locator, hence idxMu.
func (s *Service) emitDueLocked(g int) {
	n := s.opt.Degree
	for b := (s.lastBound/n + 1) * n; b <= g; b += n {
		s.idxMu.Lock()
		due := s.acc.EntriesDue(b)
		s.lastBound = b
		s.idxMu.Unlock()
		s.pendingDue = append(s.pendingDue, due...)
	}
}

// flushDueLocked writes queued entrymap entries to the entrymap log file.
// It must not run while a fragmented entry is incomplete; the entries land
// at (or displaced just after) their boundary block, and the blocks holding
// them are flagged for the displaced-entry scan (§2.3.2).
func (s *Service) flushDueLocked() error {
	// Bad-block records queued by slides (slideLocked) ride out here, so a
	// rebooted server can find the dead blocks (§2.3.2): appending them from
	// inside the seal would recurse into the tail machinery it runs
	// underneath.
	for len(s.pendingBad) > 0 && !s.midChain {
		bad := s.pendingBad[0]
		s.pendingBad = s.pendingBad[1:]
		payload := wire.PutUvarint(nil, uint64(bad))
		if err := s.appendSystemLocked(entrymap.BadBlockID, payload,
			blockfmt.FormMinimal, 0, 0, false); err != nil {
			return err
		}
	}
	for len(s.pendingDue) > 0 && !s.midChain {
		e := s.pendingDue[0]
		s.pendingDue = s.pendingDue[1:]
		payload := e.Encode(nil)
		s.stats.EntrymapBytes += int64(len(payload) + 4)
		if err := s.appendSystemLocked(entrymap.EntrymapID, payload, blockfmt.FormMinimal, 0, 0, true); err != nil {
			return err
		}
	}
	return nil
}

// appendSystemLocked appends a service-internal record (entrymap, catalog,
// bad-block). boundary=true marks the receiving block(s) with the
// entrymap-boundary flag. System records fragment like client entries, so
// the same chain exclusion applies while one is being written.
func (s *Service) appendSystemLocked(id uint16, data []byte, form, attr uint8, ts int64, boundary bool) error {
	s.awaitChainLocked()
	s.midChain = true
	defer s.endChainLocked()
	remaining := data
	first := true
	frag := 0 // the fragment the loop appends next
	for {
		if err := s.ensureTailLocked(); err != nil {
			return err
		}
		f, a := form, attr
		continued := !first
		if continued {
			f, a = blockfmt.FormMinimal, 0
		}
		avail := s.builder.FreeData(f)
		canPlace := avail >= 1
		if len(remaining) == 0 {
			canPlace = s.builder.Free() >= blockfmt.HeaderLen(f)
		}
		if !canPlace {
			if err := s.sealTailLocked(false); err != nil {
				return err
			}
			continue
		}
		take := len(remaining)
		continues := false
		if take > avail {
			take = avail
			continues = true
		}
		if _, ok := s.builder.FirstTimestamp(); !ok {
			stamp := ts
			if stamp == 0 {
				stamp = s.lastTS
			}
			s.builder.SetFirstTimestamp(stamp)
		}
		rec := blockfmt.Record{
			LogID:     id,
			Form:      f,
			AttrFlags: a,
			Timestamp: ts,
			Continued: continued,
			Continues: continues,
			Data:      remaining[:take],
		}
		if err := s.builder.Append(rec); err != nil {
			return fmt.Errorf("clio: append system record: %w", err)
		}
		if boundary {
			s.builder.SetFlags(blockfmt.FlagEntrymapBoundary)
		}
		if continued {
			s.builder.SetFlags(blockfmt.FragmentFlags(frag))
		}
		frag++
		s.tailDirty = true
		s.noteTailIDLocked(id)
		remaining = remaining[take:]
		first = false
		if continues {
			if err := s.sealTailLocked(false); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

// appendCatalogLocked durably logs a catalog record (§2.2: attribute changes
// are logged at the time of the change).
func (s *Service) appendCatalogLocked(rec *catalog.Record, ts int64) error {
	payload := rec.Encode(nil)
	s.stats.CatalogBytes += int64(len(payload) + 14)
	if err := s.appendSystemLocked(entrymap.CatalogID, payload,
		blockfmt.FormFull, blockfmt.AttrSystem, ts, false); err != nil {
		return err
	}
	if err := s.flushDueLocked(); err != nil {
		return err
	}
	return s.forceLocked()
}

// forceLocked makes the staged tail durable: stored to the NVRAM tail, or
// sealed (padded) straight to the device when no NVRAM is configured.
func (s *Service) forceLocked() error {
	// A foreign append parked mid-chain must finish before the tail image is
	// captured — persisting a tail whose last record still continues would be
	// discarded as torn by recovery.
	s.awaitChainLocked()
	if s.tailGlobal < 0 {
		return nil
	}
	if s.opt.NVRAM != nil {
		return s.stageTailLocked()
	}
	if err := s.sealTailLocked(true); err != nil {
		return err
	}
	// This seal ran after the append's chain completed, so a slide's
	// bad-block record has no chain completion left to ride out on.
	return s.flushDueLocked()
}

// stageTailLocked makes the tail durable in the NVRAM tail: it seals the
// tail's image once, stores it, and publishes that same image to readers.
// Nothing enters the block cache, which holds device-durable images only.
func (s *Service) stageTailLocked() error {
	img := s.builder.Seal()
	m := s.met()
	var nstart time.Time
	if m != nil {
		nstart = time.Now()
	}
	ndone := s.tr.Span("core.nvram_store")
	err := s.nvramStoreLocked(func() error { return s.opt.NVRAM.Store(s.tailGlobal, img) })
	ndone()
	if m != nil {
		m.nvramLat.ObserveSince(nstart)
	}
	if err != nil {
		return fmt.Errorf("clio: nvram store: %w", err)
	}
	s.tailDirty = false
	s.publishTail(img)
	return nil
}

// noteTailIDLocked adds id to the staged tail's id set.
func (s *Service) noteTailIDLocked(id uint16) {
	if has := wire.Bitmap(s.tailHas[:]); !has.Get(int(id)) {
		has.Set(int(id))
		s.tailIDs = append(s.tailIDs, id)
	}
}

// clearTailIDsLocked empties the id set for a new tail block. The list
// starts afresh: the sealed block and older snapshots keep the old one.
func (s *Service) clearTailIDsLocked() {
	for _, id := range s.tailIDs {
		wire.Bitmap(s.tailHas[:]).Clear(int(id))
	}
	s.tailIDs = nil
}

// locateForWriteLocked maps a global index to a mounted volume for writing,
// allocating successor volumes as needed.
func (s *Service) locateForWriteLocked(global int) (*volume.Volume, int, error) {
	for {
		a := s.set.Active()
		if a == nil {
			return nil, 0, errors.New("clio: no volumes mounted")
		}
		end := int(a.Hdr.StartOffset) + a.DataCapacity()
		if global < end {
			v, local, err := s.set.Locate(global)
			if err != nil {
				return nil, 0, err
			}
			if v != a {
				return nil, 0, fmt.Errorf("clio: write position %d on read-only volume %d", global, v.Hdr.Index)
			}
			return v, local, nil
		}
		if err := s.extendLocked(); err != nil {
			return nil, 0, err
		}
	}
}

// extendLocked formats and mounts the successor of the active volume.
func (s *Service) extendLocked() error {
	if s.opt.Allocate == nil {
		return ErrNoAllocator
	}
	a := s.set.Active()
	idx := a.Hdr.Index + 1
	start := a.Hdr.StartOffset + uint64(a.DataCapacity())
	dev, err := s.opt.Allocate(s.set.Seq(), idx, start, s.opt.BlockSize)
	if err != nil {
		return fmt.Errorf("clio: allocate volume %d: %w", idx, err)
	}
	hdr := volume.Header{
		Seq:         s.set.Seq(),
		Index:       idx,
		StartOffset: start,
		BlockSize:   uint32(s.opt.BlockSize),
		N:           uint16(s.opt.Degree),
		Created:     s.nextTS(),
	}
	if err := volume.Format(dev, hdr); err != nil {
		return err
	}
	v, err := volume.Mount(dev, s.nextTag)
	if err != nil {
		return err
	}
	s.nextTag++
	if err := s.set.Add(v); err != nil {
		return err
	}
	// Carry a catalog snapshot onto the new volume so that it alone can
	// rebuild the catalog when its predecessors are offline (§2.1). The
	// snapshot records land in the first blocks of the fresh volume.
	s.pendingSnapshot = s.cat.SnapshotRecords()
	return nil
}

// flushSnapshotLocked writes any pending catalog snapshot records. Called
// from ensureTail once the write position is on the new volume (never
// mid-chain).
func (s *Service) flushSnapshotLocked() error {
	for len(s.pendingSnapshot) > 0 {
		rec := s.pendingSnapshot[0]
		s.pendingSnapshot = s.pendingSnapshot[1:]
		payload := rec.Encode(nil)
		s.stats.CatalogBytes += int64(len(payload) + 4)
		if err := s.appendSystemLocked(entrymap.CatalogID, payload,
			blockfmt.FormMinimal, 0, 0, false); err != nil {
			return err
		}
	}
	return nil
}
