// Package stream holds what the streaming reads over the write-once log
// share: the instruments of tail subscriptions and the error a closed one
// returns. A subscription is a store cursor that waits (shard.Store.Watch):
// its Recv steps the cursor in the receiver's goroutine and, at the
// sealed+NVRAM-staged end, parks on core's tail notifier until group commit
// publishes — no polling, no goroutine and no buffer of its own, and no
// cost on the force path of a store nobody is tailing (the publish hook in
// core is one atomic load when idle).
//
// Delivery order is the cursor's: seal order on one shard, and on a sharded
// store's root the merged root cursor's lowest (timestamp, shard) first. An
// idle shard is never waited for, so cross-shard timestamp order is
// best-effort at the live edge. A consumer slower than the writers simply
// reads further behind the tail: the cursor is the position, so nothing is
// lost or repeated.
//
// Consumer groups — N clients sharing the shards/sublogs of a log with
// acknowledged offsets persisted as ordinary log entries — are layered on
// top in package stream/group.
package stream

import "errors"

// ErrClosed is returned by Recv after Close.
var ErrClosed = errors.New("stream: subscription closed")
