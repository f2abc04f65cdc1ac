// Package logapi defines the uniform client interface to a log service —
// the paper's point that log files are "accessed and managed using the same
// I/O and utility routines that are used to access and manage conventional
// files" (§2), regardless of whether the service is in-process, sharded
// across several volume sequences, or across the network.
//
// Service is the interface: context-first, implemented alike by shard.Store
// (one or more in-process core.Services behind one namespace; shard.Single
// wraps a lone service) and client.Client (the wire protocol). Applications
// written against Service swap deployments without code changes.
//
// IDs are store-wide: the high 16 bits carry a shard ordinal, the low 16
// bits the shard-local catalog id, so a single-shard store's IDs are
// numerically identical to its catalog ids.
//
// Implementations that support streaming reads additionally satisfy
// Watcher: Watch returns a live tail subscription that blocks at the end of
// the log and is woken by group commit (see internal/stream).
package logapi

import (
	"context"
	"errors"
	"fmt"
	"io"

	"clio/internal/core"
)

// AppendOptions selects the append form and durability; it is the
// service-side option struct, shared by every implementation.
type AppendOptions = core.AppendOptions

// Entry is one log entry, shared by every implementation. Entry.Shard
// records which shard the entry was read from (0 on single-shard stores).
type Entry = core.Entry

// ID identifies a log file within a (possibly sharded) store: the high 16
// bits are the shard ordinal, the low 16 bits the shard-local catalog id.
// On a single-shard store an ID equals its catalog id.
type ID uint32

// MakeID combines a shard ordinal and a shard-local catalog id.
func MakeID(shard int, local uint16) ID {
	return ID(uint32(shard)<<16 | uint32(local))
}

// Shard returns the shard ordinal the id routes to.
func (id ID) Shard() int { return int(id >> 16) }

// Local returns the shard-local catalog id.
func (id ID) Local() uint16 { return uint16(id) }

// String renders the id as shard:local.
func (id ID) String() string { return fmt.Sprintf("%d:%d", id.Shard(), id.Local()) }

// ErrShardRange reports an ID addressed to a shard the store does not have
// (including any non-zero shard on a single-shard surface).
var ErrShardRange = errors.New("logapi: id addresses a shard this store does not have")

// OffsetsRoot is the reserved top-level sublog holding consumer-group state:
// group g's membership and acknowledgement records live in the ordinary log
// file OffsetsRoot + "/" + g. Its root segment hashes to one shard, so every
// group's records are totally ordered — the property the deterministic
// partition assignment and the ack audit (stream/group) depend on.
const OffsetsRoot = "/.offsets"

// Info describes one log file: the catalog descriptor, addressed with
// store-wide IDs.
type Info struct {
	ID      ID
	Parent  ID
	Name    string
	Perms   uint16
	Created int64
	Owner   string
	Retired bool
	System  bool
}

// Cursor iterates a log file — in either direction, seekable by time and
// by previously observed position. Every navigation takes a context; Close
// releases server-side state (a no-op for in-process cursors).
//
// Positions (Entry.Block, Entry.Index) are shard-local; SeekPos is only
// meaningful on cursors bound to a single shard (any log file but a
// sharded store's root).
type Cursor interface {
	// Next returns the next entry, or io.EOF at the end.
	Next(ctx context.Context) (*Entry, error)
	// Prev returns the previous entry, or io.EOF at the beginning.
	Prev(ctx context.Context) (*Entry, error)
	// SeekStart positions before the first entry.
	SeekStart(ctx context.Context) error
	// SeekEnd positions after the last entry.
	SeekEnd(ctx context.Context) error
	// SeekTime positions so Next returns the first entry at/after ts.
	SeekTime(ctx context.Context, ts int64) error
	// SeekPos restores a previously observed (block, rec) gap position.
	SeekPos(ctx context.Context, block, rec int) error
	// Close releases the cursor.
	Close() error
}

// Service is the log-service surface: catalog management, appends, reads
// and durability, uniformly context-first.
type Service interface {
	// CreateLog creates a log file at an absolute path (a sublog of its
	// parent) and returns its store-wide id.
	CreateLog(ctx context.Context, path string, perms uint16, owner string) (ID, error)
	// Resolve maps a path to a log-file id.
	Resolve(ctx context.Context, path string) (ID, error)
	// List returns the sublog names beneath a path, sorted.
	List(ctx context.Context, path string) ([]string, error)
	// Stat returns the log file's catalog descriptor.
	Stat(ctx context.Context, path string) (Info, error)
	// SetPerms replaces the permission word.
	SetPerms(ctx context.Context, path string, perms uint16) error
	// Retire marks the log file retired (§2.5); its entries remain
	// readable.
	Retire(ctx context.Context, path string) error
	// Append writes one entry and returns its server timestamp.
	Append(ctx context.Context, id ID, data []byte, opts AppendOptions) (int64, error)
	// AppendMulti writes one entry into every listed log file (§2.1
	// multi-membership); ids[0] is the primary member and all ids must
	// route to one shard.
	AppendMulti(ctx context.Context, ids []ID, data []byte, opts AppendOptions) (int64, error)
	// ReadAt returns the entry at a shard-local (block, index) position,
	// as previously observed on an Entry from that shard.
	ReadAt(ctx context.Context, shard, block, index int) (*Entry, error)
	// OpenCursor opens a cursor at the start of the log file at path.
	OpenCursor(ctx context.Context, path string) (Cursor, error)
	// Force makes everything appended so far durable.
	Force(ctx context.Context) error
}

// Position is a shard-local cursor gap position, used to resume a watch
// after the last delivered entry: Position{Shard: e.Shard, Block: e.Block,
// Rec: e.Index + 1}.
type Position struct {
	Shard int
	Block int
	Rec   int
}

// WatchOptions configures a live tail subscription.
type WatchOptions struct {
	// FromStart delivers the log's existing history before live entries.
	// The default starts at the current end.
	FromStart bool
	// From resumes listed shard legs from gap positions (overriding
	// FromStart for those shards) — how a consumer continues after its
	// last acknowledged entry.
	From []Position
}

// Subscription delivers live entries in seal order. Recv blocks until an
// entry is published, ctx is done, or the subscription is closed. A Recv
// whose ctx is done leaves the subscription as it was; any other error ends
// it. A remote consumer holding entries it has not taken asks nothing; a
// server drain or idle drop meanwhile ends it once they are taken.
type Subscription interface {
	Recv(ctx context.Context) (*Entry, error)
	Close() error
}

// Watcher is the streaming-read extension of Service: a live tail
// subscription to the log file at path, woken by group-commit publish
// rather than polling. Implemented alike by shard.Store and client.Client.
type Watcher interface {
	Watch(ctx context.Context, path string, opts WatchOptions) (Subscription, error)
}

// StreamService is a Service that also supports live tail subscriptions —
// what the consumer-group machinery (stream/group) and streaming clients
// program against.
type StreamService interface {
	Service
	Watcher
}

// LocateUnique finds an entry by the client-generated unique identifier of
// §2.1: a client that writes asynchronously tags entries with its own
// sequence number (inside the data) and remembers its own timestamp; the
// server timestamp of the entry then lies within the clock skew of the
// client's. The search seeks cur to clientTS−maxSkew and scans forward
// until clientTS+maxSkew, returning the first entry match accepts, or
// io.EOF when the window holds none. It is the reconciliation read for an
// append whose outcome is unknown. As the paper notes, efficiency depends
// on clock synchronization quality, and correctness on the client's
// sequence number not wrapping within the skew window.
func LocateUnique(ctx context.Context, cur Cursor, clientTS, maxSkew int64, match func(*Entry) bool) (*Entry, error) {
	if err := cur.SeekTime(ctx, clientTS-maxSkew); err != nil {
		return nil, err
	}
	for {
		e, err := cur.Next(ctx)
		if err != nil {
			return nil, err
		}
		if e.Timestamp > clientTS+maxSkew {
			return nil, io.EOF
		}
		if match(e) {
			return e, nil
		}
	}
}
