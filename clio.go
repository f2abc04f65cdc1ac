// Package clio is a log service exploiting write-once storage: a Go
// implementation of the Clio system from "Log Files: An Extended File
// Service Exploiting Write-Once Storage" (Finlayson & Cheriton, 1987).
//
// Clio provides *log files*: readable, append-only files accessed much like
// conventional files — named in a directory hierarchy, read sequentially or
// randomly, seekable by time — stored on media that only ever need support
// append-only writes (write-once optical disk in the paper; simulated
// write-once devices or plain files here, with the append-only policy
// enforced at the device layer).
//
// # Quick start
//
// The Log interface is the uniform, context-first surface; every
// deployment shape — an in-process store, a store sharded across volume
// sequences, a network client — implements it:
//
//	store, err := clio.CreateStore("/var/log/clio", clio.DirOptions{Shards: 4})
//	if err != nil { ... }
//	defer store.Close()
//	var log clio.Log = store
//
//	ctx := context.Background()
//	id, _ := log.CreateLog(ctx, "/audit", 0o644, "root")
//	log.Append(ctx, id, []byte("user smith logged in"), clio.AppendOptions{Forced: true})
//
//	cur, _ := log.OpenCursor(ctx, "/audit")
//	for {
//		e, err := cur.Next(ctx)
//		if err == io.EOF { break }
//		fmt.Printf("%s\n", e.Data)
//	}
//
// The heavy lifting lives in internal packages; this package re-exports the
// interface surface and provides file-backed deployment helpers.
package clio

import (
	"fmt"

	"clio/internal/archive"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// Log is the uniform context-first log-service interface, implemented by
// *Store (local, possibly sharded) and internal/client.Client (network).
type Log = logapi.Service

// LogCursor iterates a log file through the Log interface.
type LogCursor = logapi.Cursor

// ID identifies a log file within a Store: shard ordinal in the high 16
// bits, shard-local catalog id in the low 16.
type ID = logapi.ID

// Info describes one log file (the catalog descriptor).
type Info = logapi.Info

// Store is a (possibly sharded) log store behind one namespace: N volume
// sequences, log files hash-partitioned by root path segment. It
// implements Log.
type Store = shard.Store

// ErrShardRange reports an ID or shard ordinal outside a store's shards.
var ErrShardRange = logapi.ErrShardRange

// Options configures one shard's service (embedded in DirOptions for
// file-backed stores).
type Options = core.Options

// AppendOptions controls one append (timestamping and forced durability).
type AppendOptions = core.AppendOptions

// Entry is one log entry as returned by a cursor.
type Entry = core.Entry

// Stats aggregates service activity counters.
type Stats = core.Stats

// RecoveryReport describes the work done by server initialization.
type RecoveryReport = core.RecoveryReport

// NVRAM models the rewriteable non-volatile tail storage of §2.3.1.
type NVRAM = core.NVRAM

// Allocator provides successor volumes when the active volume fills.
type Allocator = core.Allocator

// Errors re-exported from the core service.
var (
	ErrClosed        = core.ErrClosed
	ErrEntryTooLarge = core.ErrEntryTooLarge
	ErrNoAllocator   = core.ErrNoAllocator
	ErrSystemLog     = core.ErrSystemLog
	ErrLost          = core.ErrLost
)

// NewMemNVRAM returns an in-memory NVRAM simulation.
func NewMemNVRAM() *core.MemNVRAM { return core.NewMemNVRAM() }

// Reclamation and cold tiering: the compactor copies the live entries of
// old sealed volumes forward, demotes the emptied volumes to an archive
// backend, and serves reads of demoted blocks through the backend at
// archival latency. File-backed stores wire the tier automatically (a
// cold directory beside each shard's volumes); other deployments set
// Options.Cold with a ColdBackend and a StateStore of their own.

// CompactOptions bounds one compaction pass (Store.CompactOnce).
type CompactOptions = core.CompactOptions

// CompactResult reports one compaction pass.
type CompactResult = core.CompactResult

// ColdTier wires the reclamation subsystem into a service: where demoted
// volume images go, where the compactor's checkpoint lives, and how the
// embedding store reclaims a demoted volume's local media.
type ColdTier = core.ColdTier

// ColdBackend is the archive backend interface demoted volume images are
// stored in and read back through.
type ColdBackend = archive.Backend

// StateStore persists the compaction sidecar (the compactor's checkpoint).
type StateStore = core.StateStore

// ErrNoColdTier is returned by CompactOnce on a store with no cold tier.
var ErrNoColdTier = core.ErrNoColdTier

// NewMemStore creates an n-shard Store over fresh in-memory write-once
// devices — the quickest way to a sharded store for tests and examples.
// capacityBlocks <= 0 selects a large default. An NVRAM or ColdTier in opt
// would be shared — and stomped — by every shard, so non-nil opt.NVRAM and
// opt.Cold are only accepted for n = 1; sharded stores wanting them
// assemble per-shard services through internal/shard.New.
func NewMemStore(n, blockSize, capacityBlocks int, opt Options) (*Store, error) {
	if opt.NVRAM != nil && n > 1 {
		return nil, fmt.Errorf("clio: one NVRAM cannot back %d shards", n)
	}
	if opt.Cold != nil && n > 1 {
		return nil, fmt.Errorf("clio: one cold tier cannot back %d shards", n)
	}
	svcs := make([]*core.Service, n)
	for i := range svcs {
		svc, err := core.New(NewMemDevice(blockSize, capacityBlocks), opt)
		if err != nil {
			for _, s := range svcs {
				if s != nil {
					s.Close()
				}
			}
			return nil, err
		}
		svcs[i] = svc
	}
	return shard.New(svcs)
}

// NewMemDevice returns an in-memory write-once device for testing and
// experimentation. capacityBlocks <= 0 selects a large default.
func NewMemDevice(blockSize, capacityBlocks int) *wodev.MemDevice {
	return wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: capacityBlocks})
}
