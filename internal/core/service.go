// Package core implements the Clio log service itself — the paper's primary
// contribution. It glues the substrates together: write-once devices
// (internal/wodev) carrying volumes (internal/volume), the block format
// (internal/blockfmt), the server block cache (internal/cache), the entrymap
// search tree (internal/entrymap) and the catalog (internal/catalog).
//
// A Service owns one volume sequence and exposes the log-file abstraction:
// readable, append-only files named in a directory hierarchy, written with
// optional timestamps and forced (synchronous) durability, and read through
// cursors that iterate forwards or backwards and seek by time (§2.1).
//
// # Write path
//
// Entries are packed into the current tail block. With an NVRAM tail
// (§2.3.1) the partial block is staged in rewriteable non-volatile storage
// and re-staged on each forced write; the write-once device only ever
// receives full blocks. Without an NVRAM tail a forced write must seal the
// partial block to the device immediately, padding the remainder — the
// internal fragmentation the paper warns about.
//
// At every Nth block boundary the entrymap accumulator emits its due entries
// (highest level first), which are appended to the entrymap log file at the
// boundary block, or displaced slightly when a fragmented entry straddles
// the boundary or the boundary block is damaged (§2.3.2).
//
// # Read path
//
// Cursors locate blocks via the entrymap locator and reassemble fragmented
// entries. Reads of recent data are served from the block cache; distant
// reads cost O(log_N d) block fetches (§3.3).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/blockfmt"
	"clio/internal/cache"
	"clio/internal/catalog"
	"clio/internal/entrymap"
	"clio/internal/faults"
	"clio/internal/obs"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// MaxEntrySize bounds a single entry's data.
const MaxEntrySize = 1 << 20

// Errors.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("clio: service closed")
	// ErrEntryTooLarge is returned for entries above MaxEntrySize.
	ErrEntryTooLarge = errors.New("clio: entry exceeds maximum size")
	// ErrNoAllocator is returned when the active volume fills and no
	// successor-volume allocator was configured.
	ErrNoAllocator = errors.New("clio: volume full and no allocator configured")
	// ErrSystemLog is returned for client appends to reserved log files.
	ErrSystemLog = errors.New("clio: cannot append to a system log file")
	// ErrLost is returned when an entry's block was damaged or invalidated
	// and its contents cannot be recovered (§2.3.2).
	ErrLost = errors.New("clio: entry lost to media damage")
)

// Allocator provides a fresh, unwritten device for the next volume of a
// sequence when the active volume fills up.
type Allocator func(seq volume.SeqID, index uint32, startOffset uint64, blockSize int) (wodev.Device, error)

// Options configures a Service.
type Options struct {
	// BlockSize is the device block size; New defaults it to 1024 (§3.2),
	// Open to the mounted volumes'.
	BlockSize int
	// Degree is the entrymap tree degree N; New defaults it to 16 (§3.2),
	// Open to the mounted volumes'.
	Degree int
	// CacheBlocks bounds the block cache: 0 means the default, 4096 blocks
	// (4 MiB at the default block size), and a negative value unbounded.
	CacheBlocks int
	// NVRAM, when non-nil, stages the partial tail block in rewriteable
	// non-volatile storage so forced writes need not pad out blocks
	// (§2.3.1). Nil disables the tail: forced writes seal immediately.
	//
	// What the NVRAM can do also selects how full blocks are sealed — there
	// is no option for it. When it implements StagingNVRAM, seals are
	// pipelined: the sealed image is made durable in NVRAM, the force acks,
	// and the write-once device write proceeds on a background sealer while
	// the next batch accumulates (bounded in-flight window, in-order
	// completion; pipeline.go). Otherwise the foreground writes the block
	// itself; wrapping an NVRAM as struct{ NVRAM } hides its staging slots
	// and so pins that synchronous path.
	NVRAM NVRAM
	// Now supplies timestamps (Unix nanoseconds); defaults to time.Now.
	// The service enforces strictly increasing timestamps.
	Now func() int64
	// Allocate provides successor volumes; nil limits the sequence to the
	// initially mounted volumes.
	Allocate Allocator
	// Retry bounds the retry-with-backoff schedule applied to device reads,
	// tail-block writes and NVRAM stores when they fail with a transient
	// fault (wodev.ErrTransient and friends); nil uses
	// faults.DefaultDevicePolicy(). Retries run while the service lock is
	// held, so the schedule should stay short.
	Retry *faults.RetryPolicy
	// Faults is the named fault injection registry (FaultReadBlock,
	// FaultSealWrite, FaultNVRAMStore, FaultCompact's stages); nil injects
	// nothing.
	Faults *faults.Registry
	// CheckpointInterval, when positive, emits a recovery checkpoint to
	// the reserved checkpoint log file every time that many blocks have
	// been sealed since the last one (and on clean Close), and makes Open
	// restore from the newest valid checkpoint instead of reconstructing
	// from scratch — bounding reopen cost by the interval rather than the
	// written portion. 0 (the default) disables both sides; a store
	// written with checkpoints remains fully openable without them.
	CheckpointInterval int
	// Cold, when non-nil, enables the space-reclamation compactor and the
	// cold storage tier: CompactOnce copies the live entries of old sealed
	// volumes forward, demotes the emptied volumes to the configured archive
	// backend, and reads of demoted blocks transparently fetch from the
	// backend at archival latency. Nil disables compaction and cold reads.
	Cold *ColdTier
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = wodev.DefaultBlockSize
	}
	if o.Degree <= 0 {
		o.Degree = entrymap.DefaultDegree
	}
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 4096
	} else if o.CacheBlocks < 0 {
		o.CacheBlocks = 0 // explicit "unbounded"
	}
	if o.Now == nil {
		o.Now = func() int64 { return time.Now().UnixNano() }
	}
	return o
}

// Stats aggregates service activity, including the space-overhead accounting
// used by the §3.5 experiment. Each field is declared once: its tags are its
// /metrics series (obs.RegisterStruct), shard.Store sums the fields by them,
// and the field itself is what /statusz and in-process callers read.
type Stats struct {
	EntriesAppended int64 `metric:"clio_core_entries_appended_total" help:"Client entries appended."`
	ForcedWrites    int64 `metric:"clio_core_forced_writes_total" help:"Appends that demanded synchronous durability."`
	BlocksSealed    int64 `metric:"clio_core_blocks_sealed_total" help:"Tail blocks sealed to the write-once device."`
	DeadBlocks      int64 `metric:"clio_core_dead_blocks_total" help:"Blocks invalidated due to damage (§2.3.2)."`
	ClientBytes     int64 `metric:"clio_core_client_bytes_total" help:"Client data bytes appended."`
	HeaderBytes     int64 `metric:"clio_core_header_bytes_total" help:"Entry header and size-slot bytes."`
	EntrymapBytes   int64 `metric:"clio_core_entrymap_bytes_total" help:"Entrymap entry bytes including headers."`
	CatalogBytes    int64 `metric:"clio_core_catalog_bytes_total" help:"Catalog entry bytes including headers."`
	PaddingBytes    int64 `metric:"clio_core_padding_bytes_total" help:"Block bytes wasted by force-sealing."`
	FooterBytes     int64 `metric:"clio_core_footer_bytes_total" help:"Per-block footer bytes."`
	GroupCommits    int64 `metric:"clio_core_group_commits_total" help:"Batch commits serving two or more forced appends."`
	BatchedForces   int64 `metric:"clio_core_batched_forces_total" help:"Forced appends that shared their commit."`
	Checkpoints     int64 `metric:"clio_core_checkpoints_total" help:"Recovery checkpoints emitted."`
	CheckpointBytes int64 `metric:"clio_core_checkpoint_bytes_total" help:"Checkpoint payload bytes appended."`
	AdaptiveWaits   int64 `metric:"clio_core_adaptive_waits_total" help:"Force batches that held the adaptive commit window open."`
	PipelinedSeals  int64 `metric:"clio_core_pipelined_seals_total" help:"Seals completed through the pipelined device stage."`

	// Compaction / cold tier.
	EntriesRelocated int64 `metric:"clio_compact_entries_relocated_total" help:"Live entries copied forward by the compactor."`
	BytesRelocated   int64 `metric:"clio_compact_bytes_relocated_total" help:"Data bytes of relocated entries."`
	ColdFetches      int64 `metric:"clio_cold_fetches_total" help:"Block reads served from the cold backend."`

	// The paper's §3 cost units that no field above counts: each is one
	// event the cost model prices (vclock.Price).
	Timestamps        int64 `metric:"clio_core_timestamps_total" help:"Client-visible timestamps generated."`
	CursorSteps       int64 `metric:"clio_core_cursor_steps_total" help:"Cursor requests, each entry of a batched read counted as its own step."`
	BlocksInterpreted int64 `metric:"clio_core_blocks_interpreted_total" help:"Block accesses served through the block cache and interpreted."`
	DeviceReads       int64 `metric:"clio_core_device_reads_total" help:"Blocks the read path fetched from the log device."`

	// Gauges sampled at Stats() time (not cumulative; ResetCounters leaves
	// them, they re-derive from live state).
	CommitWindowNanos int64 `metric:"clio_core_commit_window_nanoseconds" help:"Most recent commit-window duration the force leader waited."`
	InflightSeals     int64 `metric:"clio_core_inflight_seals" help:"Sealed blocks staged to NVRAM awaiting their device write."`
	StagedBytes       int64 `metric:"clio_core_staged_bytes" help:"Bytes of sealed block images staged to NVRAM."`
	VolumesRelocated  int64 `metric:"clio_compact_volumes_relocated" help:"Volumes whose live entries have been copied forward."`
	VolumesDemoted    int64 `metric:"clio_compact_volumes_demoted" help:"Volumes archived to the cold tier and released locally."`
}

// Service is the Clio log service for one volume sequence.
//
// Locking discipline: s.mu is the WRITER lock — it serializes every mutation
// of tail state, the accumulator, the catalog write path and the stats.
// Readers never take it. Sealed blocks are immutable (write-once storage),
// so the read path works lock-free from the published tail snapshot
// (s.tailState): blocks below its sealed end come from the cache or the
// device, which synchronize only inside their own components, and the
// staged tail and pipelined seals from the snapshot alone. The writer
// publishes the tail as a view of its append-only builder, whose bytes it
// never rewrites and whose buffer it never reuses for another block, so a
// reader may seal the view while the writer appends; the atomic store and
// load of the snapshot order the two. idxMu guards the entrymap
// accumulator, which readers consult through the locator for the
// in-progress span; each locator search runs on its own Locator value, so
// searches share no state and take no lock of their own. Lock order:
// s.mu > idxMu; idxMu is never held when acquiring s.mu.
type Service struct {
	mu  sync.Mutex
	opt Options

	set    *volume.Set
	cacheP atomic.Pointer[cache.Cache]
	cat    *catalog.Table
	acc    *entrymap.Accumulator
	// loc is the locator every search copies: its own Stats stay zero, the
	// counts of finished searches are in locStats.
	loc      entrymap.Locator
	locStats struct {
		entriesExamined, pendingExamined, rawScans, timestampReads atomic.Int64
	}

	// Tail state (s.mu).
	builder    *blockfmt.Builder
	tailGlobal int // global data index of the staged tail; -1 when none
	// tailIDs lists the ids with records in the staged tail, in a list of
	// the tail's own that only grows (snapshots and seals hold prefixes of
	// it); tailHas is its membership bitmap.
	tailIDs    []uint16
	tailHas    [(wire.MaxLogID + 1) / 8]byte
	sealedEnd  int  // global data blocks durably on device (incl. dead)
	midChain   bool // a fragmented entry is incomplete
	tailDirty  bool // the staged tail holds records not yet forced
	pendingDue []*entrymap.Entry

	// tailState is the reader-visible snapshot of {sealedEnd, tail block,
	// pipelined seals}; the writer republishes it whenever any of them
	// changes, an append to the tail included.
	tailState atomic.Pointer[tailSnap]

	// Tail-publish notifier for streaming subscribers. pubSeq counts tail
	// publishes; tailWake holds the broadcast channel the current waiters
	// share, nil when nobody is waiting. The publish hook is a single
	// atomic load in that (common) case — subscribing must never tax the
	// force path of a store nobody is tailing.
	pubSeq   atomic.Uint64
	tailWake atomic.Pointer[chan struct{}]

	// idxMu guards s.acc against concurrent locator reads.
	idxMu sync.Mutex

	// Group commit (§2.3.1 amortization): concurrently arriving forced
	// appends queue in forceQ; whoever holds leaderMu drains the queue,
	// appends every queued entry and performs ONE seal/NVRAM store for the
	// whole batch.
	forceQMu      sync.Mutex
	forceQ        []*forceReq
	leaderMu      sync.Mutex
	groupCommits  atomic.Int64
	batchedForces atomic.Int64

	// Adaptive commit window (see gatherForce): EWMAs, in nanoseconds, of
	// forced-append inter-arrival time and commit duration, the previous
	// arrival stamp, and the window the current/most recent leader chose.
	// forceSig wakes a leader sleeping in its gather window early when a
	// new request arrives (capacity 1, non-blocking send).
	arrivalEWMA    atomic.Int64
	commitEWMA     atomic.Int64
	lastArrival    atomic.Int64
	windowNanos    atomic.Int64
	adaptiveWaits  atomic.Int64
	pipelinedSeals atomic.Int64
	forceSig       chan struct{}
	batchHist      [9]atomic.Int64 // pow-2 batch-size buckets 1,2,4,...,≥256

	// Pipelined sealer (s.mu + sealCond). pipe holds sealed blocks whose
	// images are durable in staging NVRAM but whose in-order device writes
	// have not completed; the background sealer drains it head-first.
	// pipeErr parks a hard device-write failure until a foreground
	// operation absorbs it (drainPipeLocked). staging is Options.NVRAM's
	// staging extension, nil when it has none: seals are then inline.
	sealCond       *sync.Cond
	pipe           []*pendingSeal
	pipeView       []pipeSnap // the snapshots' copy of pipe (repipeLocked)
	pipeErr        error
	sealerOn       bool
	sealerStop     bool
	staging        StagingNVRAM
	pendingBad     []int // bad-block records queued by slides for flushDueLocked
	stagedTailFrom int   // recovery: NVRAM tail renumber key (replayStagedSeals)

	lastTS          int64
	lastBound       int   // last boundary EntriesDue has been called for
	ckptAt          int   // sealedEnd as of the last emitted/restored checkpoint
	badBlocks       []int // full known bad-block list (recovery + live slides)
	pendingSnapshot []*catalog.Record
	closedFlag      atomic.Bool
	stats           Stats
	recovery        RecoveryReport

	// Fault tolerance: the effective retry schedule, and the blocks seals
	// had to relocate past since the last operation completed (reported back
	// as that operation's DegradedError, takeDegradedLocked).
	retry         faults.RetryPolicy
	degraded      []int
	degradedCause error

	// Compaction / cold tier (Options.Cold non-nil). cmpMu serializes
	// CompactOnce passes; cmpState is the sidecar-backed state, mutated only
	// under cmpMu (and read at Open before concurrency starts); cmpView is
	// the lock-free reader view republished at every sidecar commit;
	// coldFetches counts reads served from the cold backend.
	cmpMu       sync.Mutex
	cmpState    *compactState
	cmpView     atomic.Pointer[compactView]
	coldFetches atomic.Int64

	// Read-path cost units (Stats), counted off the writer lock.
	cursorSteps, blocksInterpreted, deviceReads atomic.Int64

	// Observability: obsM holds the registered latency instruments (nil
	// until RegisterMetrics — the same swap-able pattern as cacheP); tr is
	// the trace of the operation currently holding s.mu, set so deep
	// writer-path sites (seal, NVRAM store) can attach spans without
	// threading a parameter through every call.
	obsM atomic.Pointer[coreMetrics]
	tr   *obs.Trace

	nextTag int // next cache volume tag
}

// tailSnap is the immutable reader view of the service's write frontier.
// Write-once blocks below sealedEnd never change, so a reader holding a
// snapshot can resolve any block: sealed blocks via cache/device, the staged
// tail and pipelined seals from the snapshot alone.
type tailSnap struct {
	sealedEnd  int
	tailGlobal int // -1 when no tail is staged
	// tail is the staged tail block as published: a view of the writer's
	// append-only builder, which copies nothing. The image is sealed from it
	// when first asked for (image) and kept, so readers of one snapshot
	// share one image.
	tail    blockfmt.View
	tailIDs []uint16 // ids present in the staged tail: a prefix of the writer's append-only list
	img     atomic.Pointer[[]byte]
	// pipe mirrors the in-flight pipelined seals, in global order just
	// above sealedEnd: readers resolve those blocks from the staged images
	// exactly like the tail, since the device copies may not exist yet.
	// Snapshots share it until the pipe changes (repipeLocked).
	pipe []pipeSnap
}

// pipeSnap is the reader view of one in-flight pipelined seal.
type pipeSnap struct {
	global int
	img    []byte
	ids    []uint16
}

// end returns the snapshot's readable-block count (sealed + in-flight +
// staged tail).
func (sn *tailSnap) end() int {
	if sn.tailGlobal >= 0 {
		return sn.tailGlobal + 1
	}
	if n := len(sn.pipe); n > 0 {
		return sn.pipe[n-1].global + 1
	}
	return sn.sealedEnd
}

// image returns the staged tail's block image as the snapshot describes it,
// sealing it from the view on first use. Readers racing to the first use may
// each seal; the first to store wins and all of them return its image.
func (sn *tailSnap) image() []byte {
	if p := sn.img.Load(); p != nil {
		return *p
	}
	img := sn.tail.Seal()
	if !sn.img.CompareAndSwap(nil, &img) {
		return *sn.img.Load()
	}
	return img
}

// publishTail publishes the current tail state for lock-free readers; s.mu
// held. It copies nothing of the tail: the snapshot takes a view of the
// builder and the prefix of its id list. img, when the caller has just
// sealed the tail (a force stores that image in NVRAM), is handed to
// readers as the snapshot's image; nil leaves it to be sealed on first read.
func (s *Service) publishTail(img []byte) {
	sn := &tailSnap{sealedEnd: s.sealedEnd, tailGlobal: s.tailGlobal, pipe: s.pipeView}
	if s.tailGlobal >= 0 {
		sn.tail = s.builder.View()
		sn.tailIDs = s.tailIDs
		if img != nil {
			sealed := img // escapes here, not on every publish
			sn.img.Store(&sealed)
		}
	}
	s.tailState.Store(sn)
	// Publish-order matters for the no-lost-wakeup protocol: the sequence
	// bump happens after the snapshot store, the broadcast after the bump,
	// so a subscriber that re-reads the sequence after installing a waiter
	// cannot miss the state this publish made visible.
	s.pubSeq.Add(1)
	s.wakeTail()
}

// repipeLocked rebuilds the pipe view the next snapshots share, after the
// pipe gained, lost or renumbered a seal; s.mu held.
func (s *Service) repipeLocked() {
	s.pipeView = nil
	if len(s.pipe) == 0 {
		return
	}
	s.pipeView = make([]pipeSnap, len(s.pipe))
	for i, ps := range s.pipe {
		// ps.img and ps.ids are never mutated after enqueue (slides
		// replace the image wholesale), so aliasing them is safe.
		s.pipeView[i] = pipeSnap{global: ps.global, img: ps.img, ids: ps.ids}
	}
}

// wakeTail broadcasts a tail publish to any waiters. The idle path — no
// subscriber blocked at the tail — is a single atomic load.
func (s *Service) wakeTail() {
	if s.tailWake.Load() == nil {
		return
	}
	if ch := s.tailWake.Swap(nil); ch != nil {
		close(*ch)
	}
}

// TailSeq returns the current tail-publish sequence number. A subscriber
// reads it before scanning for new entries; if the scan comes up empty,
// TailNotify(seq) supplies a wake channel for anything published since.
func (s *Service) TailSeq() uint64 { return s.pubSeq.Load() }

// closedChan is the permanently closed channel TailNotify returns when the
// awaited publish has already happened.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// TailNotify returns a channel that is closed at the first tail publish
// after the given sequence (taken from TailSeq before the caller's scan).
// If a publish already happened — or the service closed — the returned
// channel is already closed, so a bare receive never loses a wakeup:
//
//	seq := s.TailSeq()
//	// ... cursor scan hits io.EOF ...
//	<-s.TailNotify(seq) // or select against ctx.Done()
//
// Waiters share one broadcast channel; a publish closes it for all of them.
func (s *Service) TailNotify(seq uint64) <-chan struct{} {
	for {
		if s.pubSeq.Load() != seq || s.closedFlag.Load() {
			return closedChan
		}
		ch := s.tailWake.Load()
		if ch == nil {
			nc := make(chan struct{})
			if !s.tailWake.CompareAndSwap(nil, &nc) {
				continue
			}
			ch = &nc
		}
		// Re-check after installing the waiter: a publish that raced ahead
		// of the install may have missed it.
		if s.pubSeq.Load() != seq || s.closedFlag.Load() {
			return closedChan
		}
		return *ch
	}
}

// snap returns the published tail snapshot (never nil after Open).
func (s *Service) snap() *tailSnap { return s.tailState.Load() }

// blockCache returns the current block cache (replaceable by experiments).
func (s *Service) blockCache() *cache.Cache { return s.cacheP.Load() }

// endShared is the reader-side endLocked: readable blocks per the snapshot.
func (s *Service) endShared() int {
	return s.snap().end()
}

// New creates a brand-new volume sequence on the given fresh device and
// returns the running service. The sequence id is derived from the creation
// time and the device geometry.
func New(dev wodev.Device, opt Options) (*Service, error) {
	opt = opt.withDefaults()
	if dev.BlockSize() != opt.BlockSize {
		return nil, fmt.Errorf("clio: device block size %d != option %d", dev.BlockSize(), opt.BlockSize)
	}
	now := opt.Now()
	var seq volume.SeqID
	for i := 0; i < 8; i++ {
		seq[i] = byte(now >> (8 * i))
	}
	seq[8] = byte(opt.Degree)
	seq[9] = byte(opt.BlockSize >> 8)
	hdr := volume.Header{
		Seq:         seq,
		Index:       0,
		StartOffset: 0,
		BlockSize:   uint32(opt.BlockSize),
		N:           uint16(opt.Degree),
		Created:     now,
	}
	if err := volume.Format(dev, hdr); err != nil {
		return nil, err
	}
	return Open([]wodev.Device{dev}, opt)
}

// Open mounts the given devices (the volumes of one sequence, any order;
// the newest must be present) and recovers the service state: locate the end
// of the written portion, reconstruct entrymap information, replay the
// catalog, and restore any NVRAM-staged tail block (§2.3.1). A zero
// opt.BlockSize or opt.Degree means what the volume headers say; a set one
// asserts it.
func Open(devs []wodev.Device, opt Options) (*Service, error) {
	if len(devs) == 0 {
		return nil, errors.New("clio: no devices to mount")
	}
	// Mount all volumes; adopt the sequence id, and any geometry the caller
	// left unset, from the first header.
	var vols []*volume.Volume
	for tag, dev := range devs {
		v, err := volume.Mount(dev, tag)
		if err != nil {
			return nil, err
		}
		vols = append(vols, v)
	}
	if opt.BlockSize <= 0 {
		opt.BlockSize = int(vols[0].Hdr.BlockSize)
	}
	if opt.Degree <= 0 {
		opt.Degree = int(vols[0].Hdr.N)
	}
	opt = opt.withDefaults()
	s := &Service{
		opt:            opt,
		cat:            catalog.NewTable(),
		tailGlobal:     -1,
		retry:          faults.DefaultDevicePolicy(),
		forceSig:       make(chan struct{}, 1),
		stagedTailFrom: -1,
		set:            volume.NewSet(vols[0].Hdr.Seq),
		nextTag:        len(vols),
	}
	s.sealCond = sync.NewCond(&s.mu)
	s.staging, _ = opt.NVRAM.(StagingNVRAM)
	s.cacheP.Store(cache.New(opt.CacheBlocks))
	s.publishTail(nil)
	if opt.Retry != nil {
		s.retry = *opt.Retry
	}
	for _, v := range vols {
		if int(v.Hdr.BlockSize) != opt.BlockSize {
			return nil, fmt.Errorf("clio: volume %d block size %d != option %d",
				v.Hdr.Index, v.Hdr.BlockSize, opt.BlockSize)
		}
		if int(v.Hdr.N) != opt.Degree {
			return nil, fmt.Errorf("clio: volume %d degree %d != option %d",
				v.Hdr.Index, v.Hdr.N, opt.Degree)
		}
		if err := s.set.Add(v); err != nil {
			return nil, err
		}
	}
	acc, err := entrymap.NewAccumulator(opt.Degree)
	if err != nil {
		return nil, err
	}
	s.acc = acc
	loc, err := entrymap.NewLocator((*locatorSource)(s), opt.Degree)
	if err != nil {
		return nil, err
	}
	s.loc = *loc
	// The compaction sidecar must load before recovery: replay may need to
	// read blocks of already-demoted volumes through the cold backend.
	if err := s.loadColdState(); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	// Finish demotions a crash interrupted, then surface the compaction
	// state in the recovery report (recover() may have rebuilt s.recovery
	// from a checkpoint, so the counts are set afterwards).
	if err := s.sweepDemoted(); err != nil {
		return nil, err
	}
	if s.cmpState != nil {
		for _, v := range s.cmpState.Vols {
			s.recovery.VolumesRelocated++
			if v.Demoted {
				s.recovery.VolumesDemoted++
			}
		}
	}
	return s, nil
}

// BlockSize returns the block size in bytes.
func (s *Service) BlockSize() int { return s.opt.BlockSize }

// offLockCounter pairs a Stats field with the atomic that stands in for it.
type offLockCounter struct {
	field *int64
	at    *atomic.Int64
}

// offLockCounters lists the counters whose increment sites do not hold s.mu
// — the commit leader, the sealer, the read path. statsLocked folds them
// into its copy and ResetCounters zeroes them, both from this one list, so
// a counter cannot be in one and missing from the other.
func (s *Service) offLockCounters(st *Stats) [8]offLockCounter {
	return [8]offLockCounter{
		{&st.GroupCommits, &s.groupCommits},
		{&st.BatchedForces, &s.batchedForces},
		{&st.AdaptiveWaits, &s.adaptiveWaits},
		{&st.PipelinedSeals, &s.pipelinedSeals},
		{&st.ColdFetches, &s.coldFetches},
		{&st.CursorSteps, &s.cursorSteps},
		{&st.BlocksInterpreted, &s.blocksInterpreted},
		{&st.DeviceReads, &s.deviceReads},
	}
}

// Stats returns a snapshot of the service counters: the one copy that
// /metrics, /statusz and in-process callers all read.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Service) statsLocked() Stats {
	out := s.stats
	for _, c := range s.offLockCounters(&out) {
		*c.field = c.at.Load()
	}
	out.CommitWindowNanos = s.windowNanos.Load()
	out.InflightSeals = int64(len(s.pipe))
	for _, ps := range s.pipe {
		out.StagedBytes += int64(len(ps.img))
	}
	if cv := s.cmpView.Load(); cv != nil {
		out.VolumesRelocated = int64(len(cv.vols))
		for _, v := range cv.vols {
			if v.Demoted {
				out.VolumesDemoted++
			}
		}
	}
	return out
}

// BatchSizeHistogram returns the distribution of group-commit batch sizes
// in power-of-two buckets: index i counts batches of 2^i..2^(i+1)-1 entries
// (the last bucket is unbounded).
func (s *Service) BatchSizeHistogram() [9]int64 {
	var out [9]int64
	for i := range s.batchHist {
		out[i] = s.batchHist[i].Load()
	}
	return out
}

// CacheStats returns the block cache counters.
func (s *Service) CacheStats() cache.Stats { return s.blockCache().Stats() }

// ResetCounters zeroes service, cache and device counters (experiments).
func (s *Service) ResetCounters() {
	s.mu.Lock()
	for _, c := range s.offLockCounters(&s.stats) {
		c.at.Store(0)
	}
	s.stats = Stats{}
	s.mu.Unlock()
	for i := range s.batchHist {
		s.batchHist[i].Store(0)
	}
	s.blockCache().ResetStats()
	for _, v := range s.set.Volumes() {
		v.Dev.ResetStats()
	}
}

// SetCacheCapacity replaces the block cache with one bounded to the given
// number of blocks (negative = unbounded), used by the §4 cache-economics
// experiment. The staged tail and pipelined seals stay readable: the
// snapshot serves them, never the cache.
func (s *Service) SetCacheCapacity(blocks int) {
	if blocks == 0 {
		blocks = 4096
	} else if blocks < 0 {
		blocks = 0
	}
	s.cacheP.Store(cache.New(blocks))
}

// FlushCache empties the block cache (the §3.3.1 no-caching worst case).
func (s *Service) FlushCache() {
	s.blockCache().Flush()
}

// End returns the number of readable data blocks (sealed plus staged tail).
func (s *Service) End() int {
	return s.endShared()
}

func (s *Service) endLocked() int {
	if s.tailGlobal >= 0 {
		return s.tailGlobal + 1
	}
	if n := len(s.pipe); n > 0 {
		return s.pipe[n-1].global + 1
	}
	return s.sealedEnd
}

// DeviceStats sums the device counters across mounted volumes.
func (s *Service) DeviceStats() wodev.Stats {
	var out wodev.Stats
	for _, v := range s.set.Volumes() {
		obs.AddStruct(&out, v.Dev.Stats())
	}
	return out
}

// LocateStats returns the cumulative entrymap locator counters: the sum
// over every search that has finished.
func (s *Service) LocateStats() entrymap.LocateStats {
	c := &s.locStats
	return entrymap.LocateStats{
		EntriesExamined: int(c.entriesExamined.Load()),
		PendingExamined: int(c.pendingExamined.Load()),
		RawScans:        int(c.rawScans.Load()),
		TimestampReads:  int(c.timestampReads.Load()),
	}
}

// ResetLocateStats zeroes the locator counters.
func (s *Service) ResetLocateStats() {
	c := &s.locStats
	c.entriesExamined.Store(0)
	c.pendingExamined.Store(0)
	c.rawScans.Store(0)
	c.timestampReads.Store(0)
}

// locFindNext, locFindPrev and locFindByTime each run one search on their own
// copy of the locator — concurrent cursors share nothing but the Source,
// which synchronizes internally — and add what it counted to the service's
// totals when it is done. The copy is a local of these functions, not of a
// closure, so it stays on the stack. ids is the ascending set searched for,
// a cursor's whole id set: one search, one latency sample and one fold of
// the counts per search, however many sublogs the set holds — and a cursor
// searches once per run of blocks (entrymap.Run), not once per block.
func (s *Service) locFindNext(ids []uint16, from int) (int, entrymap.Run, error) {
	l := s.loc
	defer s.locateDone(&l.Stats, s.locateStart())
	return l.FindNext(ids, from)
}

func (s *Service) locFindPrev(ids []uint16, before int) (int, error) {
	l := s.loc
	defer s.locateDone(&l.Stats, s.locateStart())
	return l.FindPrev(ids, before)
}

func (s *Service) locFindByTime(ts int64) (int, error) {
	l := s.loc
	defer s.locateDone(&l.Stats, s.locateStart())
	return l.FindByTime(ts)
}

// locateStart is the start time of a search for the locate latency
// histogram, zero when metrics are not registered.
func (s *Service) locateStart() time.Time {
	if s.met() == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Service) locateDone(st *entrymap.LocateStats, start time.Time) {
	if !start.IsZero() { // metrics, once registered, stay
		s.met().locateLat.ObserveSince(start)
	}
	c := &s.locStats
	addCount(&c.entriesExamined, st.EntriesExamined)
	addCount(&c.pendingExamined, st.PendingExamined)
	addCount(&c.rawScans, st.RawScans)
	addCount(&c.timestampReads, st.TimestampReads)
}

// addCount skips the shared cache line for the counts a search left at zero
// (most searches move one or two of the four).
func addCount(total *atomic.Int64, n int) {
	if n != 0 {
		total.Add(int64(n))
	}
}

// Close flushes the tail and stops the service. With an NVRAM tail the
// partial block stays staged (it survives restarts); without one it is
// sealed to the device, padding the remainder. The devices themselves are
// owned by the caller and remain open.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		// Closed by a crash the sealer absorbed, or by an earlier Close or
		// Crash: the sealer may still be parked, waiting for work.
		s.stopSealerLocked()
		return nil
	}
	// A clean close with the checkpoint policy active emits a final
	// checkpoint covering everything written, so the next Open replays
	// (almost) nothing. The emit seals the tail itself.
	if s.opt.CheckpointInterval > 0 && s.endLocked() > s.ckptAt {
		if err := s.emitCheckpointLocked(); err != nil {
			return err
		}
	}
	var err error
	for {
		if s.tailGlobal >= 0 {
			if s.opt.NVRAM != nil {
				err = s.stageTailLocked()
			} else {
				err = s.sealTailLocked(false)
			}
			if err != nil {
				s.stopSealerLocked()
				return err
			}
		}
		// Completion barrier: every in-flight pipelined seal reaches the device
		// (or its hard error surfaces here) before the service reports closed.
		if err = s.drainPipeLocked(); err != nil || len(s.pendingBad) == 0 {
			break
		}
		// A slide on the way out — the seal above, or a background write the
		// barrier waited for — queued a bad-block record no later append will
		// carry: write it and make the tail holding it durable the same way.
		s.awaitChainLocked()
		if err = s.flushDueLocked(); err != nil {
			break
		}
	}
	s.stopSealerLocked()
	s.closedFlag.Store(true)
	s.wakeTail()
	return err
}

// Crash simulates a power failure: the service is abandoned without
// flushing anything. Only NVRAM-staged and device-sealed state survives for
// a subsequent Open. The devices are left open for reuse by the test.
func (s *Service) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Stop the background sealer without draining: in-flight staged seals
	// are abandoned exactly where the power cut caught them (a device
	// write already underway may still land — indistinguishable from the
	// cut arriving a moment later). The wait is only so the sealer cannot
	// keep touching devices a test is about to hand to a new Open.
	s.stopSealerLocked()
	s.closedFlag.Store(true)
	s.wakeTail()
}

// Volumes returns the mounted volumes.
func (s *Service) Volumes() []*volume.Volume { return s.set.Volumes() }

// Catalog surface.

// CreateLog creates a log file at the given absolute path; the parent path
// must already exist ("/" for top-level log files). The new log file is a
// sublog of its parent (§2.1). The catalog record is logged durably before
// CreateLog returns.
func (s *Service) CreateLog(path string, perms uint16, owner string) (uint16, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return 0, ErrClosed
	}
	if len(path) == 0 || path[0] != '/' {
		return 0, fmt.Errorf("clio: %w: path %q must be absolute", catalog.ErrBadName, path)
	}
	dir, name := splitPath(path)
	parent, err := s.cat.Resolve(dir)
	if err != nil {
		return 0, err
	}
	s.awaitChainLocked()
	ts := s.nextTS()
	d, rec, err := s.cat.Create(parent, name, perms, owner, ts)
	if err != nil {
		return 0, err
	}
	if err := s.appendCatalogLocked(rec, ts); err != nil {
		return 0, err
	}
	return d.ID, nil
}

// Resolve maps an absolute path to a log-file id. Catalog lookups are served
// lock-free: the table synchronizes internally.
func (s *Service) Resolve(path string) (uint16, error) {
	return s.cat.Resolve(path)
}

// PathOf maps an id back to its absolute path.
func (s *Service) PathOf(id uint16) (string, error) {
	return s.cat.PathOf(id)
}

// List returns the sublog names beneath the given path, sorted.
func (s *Service) List(path string) ([]string, error) {
	id, err := s.cat.Resolve(path)
	if err != nil {
		return nil, err
	}
	return s.cat.List(id)
}

// Stat returns the catalog descriptor for a path.
func (s *Service) Stat(path string) (catalog.Descriptor, error) {
	id, err := s.cat.Resolve(path)
	if err != nil {
		return catalog.Descriptor{}, err
	}
	d, err := s.cat.Get(id)
	if err != nil {
		return catalog.Descriptor{}, err
	}
	return *d, nil
}

// SetPerms logs and applies a permissions change (§2.2: every attribute
// change is itself logged in the catalog log file).
func (s *Service) SetPerms(path string, perms uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.cat.Resolve(path)
	if err != nil {
		return err
	}
	rec, err := s.cat.SetPerms(id, perms)
	if err != nil {
		return err
	}
	s.awaitChainLocked()
	return s.appendCatalogLocked(rec, s.nextTS())
}

// Retire closes a log file for further appends. Its entries remain readable
// until a compaction pass (Options.Cold) reclaims the space; without a cold
// tier they remain readable forever.
func (s *Service) Retire(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.cat.Resolve(path)
	if err != nil {
		return err
	}
	rec, err := s.cat.Retire(id)
	if err != nil {
		return err
	}
	s.awaitChainLocked()
	return s.appendCatalogLocked(rec, s.nextTS())
}

// splitPath separates an absolute path into its parent directory and final
// component ("/mail/smith" → "/mail", "smith").
func splitPath(path string) (dir, name string) {
	if path == "" {
		return "/", ""
	}
	last := -1
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			last = i
		}
	}
	if last <= 0 {
		return "/", path[last+1:]
	}
	return path[:last], path[last+1:]
}

// nextTS returns a strictly increasing timestamp.
func (s *Service) nextTS() int64 {
	ts := s.opt.Now()
	if ts <= s.lastTS {
		ts = s.lastTS + 1
	}
	s.lastTS = ts
	return ts
}
