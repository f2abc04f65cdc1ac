// Package shard scales the log service out horizontally: a Store
// hash-partitions log files across N independent core.Service volume
// sequences while presenting the single-namespace semantics of one service.
//
// The paper's service manages one volume sequence (§2.4), but nothing in
// its design couples log files on different sequences: every log file's
// entries, entrymap entries and catalog records live on the sequence that
// owns it. The Store exploits exactly that independence. Each shard is a
// complete service — its own NVRAM tail, group-commit queue, block-cache
// shard set and recovery scan — so forced-append throughput and recovery
// wall-clock scale with the shard count.
//
// # Partitioning
//
// A log file routes by the FNV-1a hash of its root path segment
// ("/mail/smith" routes by "mail"), so a parent log file and all its
// sublogs land on one shard and multi-membership appends (§2.1) and
// parent-includes-sublog reads keep their single-sequence semantics. The
// root "/" is the one namespace object that spans shards: listing fans out
// to every shard and merges, and a root cursor merge-reads all shards'
// volume sequence logs in timestamp order.
//
// # IDs
//
// Store-wide ids are logapi.IDs: shard ordinal in the high 16 bits,
// shard-local catalog id in the low 16. Entry.Shard and the shard argument
// of ReadAt carry the same ordinal, so positions observed on entries
// remain usable.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/stream"
	"clio/internal/wodev"
)

// Store is a sharded log store: N core services behind one namespace. It
// implements logapi.Service. Methods are safe for concurrent use (each
// shard synchronizes internally; the Store itself is immutable after New).
type Store struct {
	svcs []*core.Service
	// streamMet, when set (RegisterStreamMetrics), instruments every
	// subsequently opened Watch subscription.
	streamMet atomic.Pointer[stream.Metrics]
}

var _ logapi.Service = (*Store)(nil)

// MaxShards bounds the shard count to what a logapi.ID can address.
const MaxShards = 1 << 16

// New assembles a Store over already-open services. The slice order is the
// shard numbering and must be stable across restarts (the partitioning
// hash is deterministic, so a reopened store must present the same shard
// for each root segment).
func New(svcs []*core.Service) (*Store, error) {
	if len(svcs) == 0 {
		return nil, errors.New("shard: no services")
	}
	if len(svcs) > MaxShards {
		return nil, fmt.Errorf("shard: %d shards exceed the %d addressable", len(svcs), MaxShards)
	}
	return &Store{svcs: svcs}, nil
}

// Single wraps one service as a 1-shard store — the compatibility path for
// unsharded deployments; every id keeps its catalog value.
func Single(svc *core.Service) *Store {
	return &Store{svcs: []*core.Service{svc}}
}

// Open opens (and recovers) every shard concurrently and assembles the
// Store: devs[i] is shard i's volume sequence and opts[i] its options
// (each shard needs its own NVRAM). Shard recovery scans are independent
// end-probes of separate devices, so the wall-clock of a full-store open
// tracks the slowest shard, not the sum. If any shard fails, the shards
// that did open are closed and the joined error is returned.
func Open(devs [][]wodev.Device, opts []core.Options) (*Store, error) {
	if len(devs) == 0 {
		return nil, errors.New("shard: no shards")
	}
	if len(devs) != len(opts) {
		return nil, fmt.Errorf("shard: %d device sets but %d option sets", len(devs), len(opts))
	}
	svcs := make([]*core.Service, len(devs))
	errs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			svcs[i], errs[i] = core.Open(devs[i], opts[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		for _, s := range svcs {
			if s != nil {
				s.Close()
			}
		}
		return nil, err
	}
	return New(svcs)
}

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.svcs) }

// Service returns shard i's underlying core service.
func (st *Store) Service(i int) *core.Service { return st.svcs[i] }

// hashSegment is the partitioning function: FNV-1a over the root path
// segment, reduced modulo the shard count.
func hashSegment(seg string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(seg))
	return int(h.Sum32() % uint32(n))
}

// RootSegment returns the first component of an absolute path, "" for "/".
// It is the unit the partitioner routes by, and — exported — the unit the
// server's tenant namespaces scope to: a tenant owns exactly one root
// segment, so tenancy and shard routing agree on what a namespace is.
func RootSegment(path string) (string, error) { return rootSegment(path) }

// rootSegment returns the first component of an absolute path, "" for "/".
func rootSegment(path string) (string, error) {
	if len(path) == 0 || path[0] != '/' {
		return "", fmt.Errorf("shard: path %q must be absolute", path)
	}
	rest := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, nil
}

// ShardFor returns the shard a path routes to. The root routes to shard 0
// (its point operations — Stat, Resolve — are identical on every shard;
// listing and cursors fan out instead).
func (st *Store) ShardFor(path string) (int, error) {
	seg, err := rootSegment(path)
	if err != nil {
		return 0, err
	}
	if seg == "" {
		return 0, nil
	}
	return hashSegment(seg, len(st.svcs)), nil
}

// PathOf maps a store-wide id back to its absolute path — the reverse of
// Resolve, served lock-free from the owning shard's catalog. The server's
// tenant enforcement uses it to attribute id-addressed operations (appends,
// position reads) to the namespace that owns the log.
func (st *Store) PathOf(id logapi.ID) (string, error) {
	sh, err := st.shardOf(id)
	if err != nil {
		return "", err
	}
	return st.svcs[sh].PathOf(id.Local())
}

// shardOf range-checks an id's shard ordinal.
func (st *Store) shardOf(id logapi.ID) (int, error) {
	sh := id.Shard()
	if sh >= len(st.svcs) {
		return 0, fmt.Errorf("shard: id %v in a %d-shard store: %w", id, len(st.svcs), logapi.ErrShardRange)
	}
	return sh, nil
}

func (st *Store) CreateLog(ctx context.Context, path string, perms uint16, owner string) (logapi.ID, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sh, err := st.ShardFor(path)
	if err != nil {
		return 0, err
	}
	id, err := st.svcs[sh].CreateLog(path, perms, owner)
	return logapi.MakeID(sh, id), err
}

func (st *Store) Resolve(ctx context.Context, path string) (logapi.ID, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sh, err := st.ShardFor(path)
	if err != nil {
		return 0, err
	}
	id, err := st.svcs[sh].Resolve(path)
	return logapi.MakeID(sh, id), err
}

// List returns the sublog names beneath a path. Listing the root fans out
// to every shard and merges the name sets; the per-shard system log files
// (".entrymap", ".catalog", ".badblocks", ".checkpoint"), present on each
// shard, dedupe
// to one listing entry.
func (st *Store) List(ctx context.Context, path string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seg, err := rootSegment(path)
	if err != nil {
		return nil, err
	}
	if seg != "" {
		return st.svcs[hashSegment(seg, len(st.svcs))].List(path)
	}
	seen := make(map[string]bool)
	var out []string
	for _, svc := range st.svcs {
		names, err := svc.List("/")
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func (st *Store) Stat(ctx context.Context, path string) (logapi.Info, error) {
	if err := ctx.Err(); err != nil {
		return logapi.Info{}, err
	}
	sh, err := st.ShardFor(path)
	if err != nil {
		return logapi.Info{}, err
	}
	d, err := st.svcs[sh].Stat(path)
	if err != nil {
		return logapi.Info{}, err
	}
	return logapi.Info{
		ID:      logapi.MakeID(sh, d.ID),
		Parent:  logapi.MakeID(sh, d.Parent),
		Name:    d.Name,
		Perms:   d.Perms,
		Created: d.Created,
		Owner:   d.Owner,
		Retired: d.Retired,
		System:  d.System,
	}, nil
}

func (st *Store) SetPerms(ctx context.Context, path string, perms uint16) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sh, err := st.ShardFor(path)
	if err != nil {
		return err
	}
	return st.svcs[sh].SetPerms(path, perms)
}

func (st *Store) Retire(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sh, err := st.ShardFor(path)
	if err != nil {
		return err
	}
	return st.svcs[sh].Retire(path)
}

func (st *Store) Append(ctx context.Context, id logapi.ID, data []byte, opts logapi.AppendOptions) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sh, err := st.shardOf(id)
	if err != nil {
		return 0, err
	}
	return st.svcs[sh].Append(id.Local(), data, opts)
}

// AppendMulti writes one multi-membership entry (§2.1). A log entry is one
// record in one block of one volume sequence, so every member must live on
// the same shard — the partitioning function guarantees that for a parent
// and its sublogs, which is the membership shape the paper describes.
func (st *Store) AppendMulti(ctx context.Context, ids []logapi.ID, data []byte, opts logapi.AppendOptions) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, errors.New("shard: AppendMulti needs at least one id")
	}
	sh, err := st.shardOf(ids[0])
	if err != nil {
		return 0, err
	}
	local := make([]uint16, len(ids))
	for i, id := range ids {
		if id.Shard() != sh {
			return 0, fmt.Errorf("shard: multi-membership ids %v and %v span shards: %w",
				ids[0], id, logapi.ErrShardRange)
		}
		local[i] = id.Local()
	}
	return st.svcs[sh].AppendMulti(local, data, opts)
}

func (st *Store) ReadAt(ctx context.Context, shard, block, index int) (*logapi.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(st.svcs) {
		return nil, fmt.Errorf("shard: shard %d in a %d-shard store: %w", shard, len(st.svcs), logapi.ErrShardRange)
	}
	e, err := st.svcs[shard].ReadAt(block, index)
	if err != nil {
		return nil, err
	}
	e.Shard = shard
	return e, nil
}

func (st *Store) OpenCursor(ctx context.Context, path string) (logapi.Cursor, error) {
	return st.Cursor(ctx, path)
}

// Cursor is OpenCursor returning the store's own Cursor, which also runs
// core's forward loop.
func (st *Store) Cursor(ctx context.Context, path string) (Cursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seg, err := rootSegment(path)
	if err != nil {
		return nil, err
	}
	if seg == "" {
		rc, err := st.openRootCursor()
		if err != nil {
			return nil, err
		}
		return rc, nil
	}
	sh := hashSegment(seg, len(st.svcs))
	cur, err := st.svcs[sh].OpenCursor(path)
	if err != nil {
		return nil, err
	}
	return &cursor{cur: cur, shard: sh}, nil
}

// Force makes every shard's staged tail durable, concurrently — each
// shard's force is an independent NVRAM store or padded seal.
func (st *Store) Force(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return st.each(func(svc *core.Service) error { return svc.Force() })
}

// Close closes every shard concurrently (each seals or stages its tail).
func (st *Store) Close() error {
	return st.each(func(svc *core.Service) error { return svc.Close() })
}

// Crash abandons every shard's volatile state without staging or sealing —
// the test hook for whole-store crash simulation.
func (st *Store) Crash() {
	for _, svc := range st.svcs {
		svc.Crash()
	}
}

// each runs fn on every shard concurrently and joins the failures,
// labeled by shard.
func (st *Store) each(fn func(*core.Service) error) error {
	errs := make([]error, len(st.svcs))
	var wg sync.WaitGroup
	for i, svc := range st.svcs {
		wg.Add(1)
		go func(i int, svc *core.Service) {
			defer wg.Done()
			if err := fn(svc); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, svc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats returns the shard-summed operation counters.
func (st *Store) Stats() core.Stats {
	var out core.Stats
	for _, svc := range st.svcs {
		s := svc.Stats()
		// The commit window is a per-shard gauge, not additive: report the
		// widest shard's, the one currently shaping worst-case force latency.
		window := max(out.CommitWindowNanos, s.CommitWindowNanos)
		obs.AddStruct(&out, s)
		out.CommitWindowNanos = window
	}
	return out
}

// End returns the shard-summed count of data blocks (the store's total log
// length in blocks).
func (st *Store) End() int {
	var n int
	for _, svc := range st.svcs {
		n += svc.End()
	}
	return n
}

// Ends returns each shard's data-block end individually, in shard order. The
// cluster layer compares these against follower extents to report per-shard
// replication lag.
func (st *Store) Ends() []int {
	out := make([]int, len(st.svcs))
	for i, svc := range st.svcs {
		out[i] = svc.End()
	}
	return out
}

// LastRecoveryByShard returns each shard's recovery report from the most
// recent open.
func (st *Store) LastRecoveryByShard() []core.RecoveryReport {
	out := make([]core.RecoveryReport, len(st.svcs))
	for i, svc := range st.svcs {
		out[i] = svc.LastRecovery()
	}
	return out
}

// BadBlockRef attributes a corrupted block to the shard that owns it. Block
// indices are shard-local — every shard numbers its data blocks from zero —
// so a merged report must carry the pair, never the bare index: two shards
// can each have a bad block 7, and a flat []int would silently alias them.
type BadBlockRef struct {
	Shard int
	Block int
}

// MergedRecovery is the store-wide summary of the per-shard recovery
// reports. Counters are sums across shards; the tail and checkpoint fields
// are explicit about their quantifier (a plain bool named TailRestored was
// ambiguous between "any" and "all" — it meant "any", and now says so).
type MergedRecovery struct {
	// SealedBlocks, EndProbes, EntrymapBlocksScanned, EntrymapEntriesRead,
	// CatalogEntries and BlocksReplayed sum the per-shard counters.
	SealedBlocks          int
	EndProbes             int64
	EntrymapBlocksScanned int
	EntrymapEntriesRead   int
	CatalogEntries        int
	BlocksReplayed        int
	// TailsRestored counts the shards that restored an NVRAM-staged tail;
	// TailRestored is true when any shard did (TailsRestored > 0).
	TailsRestored int
	TailRestored  bool
	// CheckpointsUsed counts the shards that recovered from an in-log
	// checkpoint rather than full reconstruction.
	CheckpointsUsed int
	// VolumesRelocated and VolumesDemoted sum each shard's compaction state
	// as of the open: volumes whose live entries have been copied forward,
	// and the subset archived cold and released locally.
	VolumesRelocated int
	VolumesDemoted   int
	// BadBlocks lists every known-corrupted block, attributed to its shard.
	BadBlocks []BadBlockRef
}

// LastRecovery merges the per-shard recovery reports from the most recent
// open. Use LastRecoveryByShard for the raw per-shard reports.
func (st *Store) LastRecovery() MergedRecovery {
	var out MergedRecovery
	for sh, r := range st.LastRecoveryByShard() {
		out.SealedBlocks += r.SealedBlocks
		out.EndProbes += r.EndProbes
		out.EntrymapBlocksScanned += r.EntrymapBlocksScanned
		out.EntrymapEntriesRead += r.EntrymapEntriesRead
		out.CatalogEntries += r.CatalogEntries
		out.BlocksReplayed += r.BlocksReplayed
		if r.TailRestored {
			out.TailsRestored++
		}
		if r.CheckpointUsed {
			out.CheckpointsUsed++
		}
		out.VolumesRelocated += r.VolumesRelocated
		out.VolumesDemoted += r.VolumesDemoted
		for _, b := range r.BadBlocks {
			out.BadBlocks = append(out.BadBlocks, BadBlockRef{Shard: sh, Block: b})
		}
	}
	out.TailRestored = out.TailsRestored > 0
	return out
}

// CompactOnce runs one compaction pass on every shard concurrently and sums
// the per-shard results. Each shard compacts its own volume sequence
// independently (a log file lives wholly on one shard, so there is no
// cross-shard liveness to coordinate). Shards that fail are reported in the
// joined error; the result still sums the shards that succeeded.
func (st *Store) CompactOnce(ctx context.Context, opt core.CompactOptions) (core.CompactResult, error) {
	results := make([]*core.CompactResult, len(st.svcs))
	errs := make([]error, len(st.svcs))
	var wg sync.WaitGroup
	for i, svc := range st.svcs {
		wg.Add(1)
		go func(i int, svc *core.Service) {
			defer wg.Done()
			r, err := svc.CompactOnce(ctx, opt)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			results[i] = r
		}(i, svc)
	}
	wg.Wait()
	var out core.CompactResult
	for _, r := range results {
		if r == nil {
			continue
		}
		out.VolumesExamined += r.VolumesExamined
		out.VolumesSkipped += r.VolumesSkipped
		out.VolumesReloc += r.VolumesReloc
		out.VolumesDemoted += r.VolumesDemoted
		out.EntriesCopied += r.EntriesCopied
		out.BytesCopied += r.BytesCopied
	}
	return out, errors.Join(errs...)
}

// RegisterMetrics registers every shard's full metric surface in reg, each
// shard's series carrying a `shard` label with its ordinal — one scrape
// breaks the whole store down per shard.
func (st *Store) RegisterMetrics(reg *obs.Registry) {
	for i, svc := range st.svcs {
		svc.RegisterMetrics(reg, obs.L("shard", strconv.Itoa(i)))
	}
}

// Status snapshots every shard for /statusz, in shard order.
func (st *Store) Status() []core.ServiceStatus {
	out := make([]core.ServiceStatus, len(st.svcs))
	for i, svc := range st.svcs {
		out[i] = svc.Status()
	}
	return out
}
