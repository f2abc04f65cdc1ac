// Package stream implements streaming reads over the write-once log: live
// tail subscriptions that block at the sealed+NVRAM-staged end and are woken
// by group-commit publish — no polling, and no cost on the force path of a
// store nobody is tailing (the publish hook in core is one atomic load when
// idle).
//
// A subscription is a cursor with a pump: the pump reads entries through the
// ordinary cursor machinery, delivers them into a bounded per-subscriber
// buffer, and parks on core's tail notifier when it reaches the live edge.
// Delivery order is seal order per shard. A subscription over several shards
// (a sharded store's root) live-merges the K shard tails: whenever more than
// one entry is pending the lowest (timestamp, shard) is delivered first —
// the same order the sharded root cursor uses — but an idle shard is never
// waited for, so cross-shard timestamp order is best-effort at the live
// edge.
//
// Backpressure: when the subscriber's buffer is full the subscription drops
// out of the live stream into catch-up mode — the pump simply stops racing
// the tail and resumes from its last delivered position through the normal
// cursor at whatever pace the consumer drains. No entries are lost or
// duplicated; the cursor is the resume position. The Stats report how often
// that happened.
//
// Consumer groups — N clients sharing the shards/sublogs of a log with
// acknowledged offsets persisted as ordinary log entries — are layered on
// top in package stream/group.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/core"
)

// ErrClosed is returned by Recv after Close.
var ErrClosed = errors.New("stream: subscription closed")

// DefaultBuffer is the per-subscriber delivery buffer when Options.Buffer
// is unset.
const DefaultBuffer = 256

// Pos is a shard-local cursor gap position, used to resume a subscription
// after the last delivered entry: Pos{Shard: e.Shard, Block: e.Block,
// Rec: e.Index + 1}.
type Pos struct {
	Shard int
	Block int
	Rec   int
}

// Options configures a subscription.
type Options struct {
	// Buffer bounds the delivery buffer in entries; 0 means DefaultBuffer.
	Buffer int
	// FromStart delivers the log's existing history before live entries.
	// The default starts at the current end (live entries only).
	FromStart bool
	// From resumes each listed shard leg from a gap position (overrides
	// FromStart for that shard). Legs not listed follow FromStart.
	From []Pos
	// Metrics, when non-nil, receives delivery instrumentation.
	Metrics *Metrics
}

// Leg names one volume sequence a subscription tails: the shard's service
// and its ordinal (0 for a standalone store).
type Leg struct {
	Svc   *core.Service
	Shard int
}

// Sub is a live tail subscription. Recv returns entries in seal order; it
// blocks until an entry is published, the context is done, or the
// subscription is closed. A Sub is safe for one concurrent receiver.
type Sub struct {
	out  chan *core.Entry
	stop chan struct{}

	closeOnce sync.Once

	mu      sync.Mutex
	failure error

	delivered atomic.Int64
	catchups  atomic.Int64
	live      atomic.Bool

	met *Metrics
}

// Stats is a point-in-time snapshot of subscription activity.
type Stats struct {
	// Delivered counts entries handed to the subscriber buffer.
	Delivered int64
	// CatchUps counts transitions into catch-up mode: the subscriber's
	// buffer overflowed and the pump fell back to cursor-paced delivery.
	CatchUps int64
	// Live reports whether the pump was parked at the live edge when last
	// observed.
	Live bool
	// Buffered is the number of delivered-but-undrained entries.
	Buffered int
}

// Open starts a subscription over the given legs for the log file at path.
// A single leg tails one volume sequence; several legs live-merge a sharded
// store's shard tails. The pump goroutine runs until Close, a context-free
// hard error (service closed, media loss), and is the only writer to the
// delivery buffer.
func Open(path string, opts Options, legs ...Leg) (*Sub, error) {
	if len(legs) == 0 {
		return nil, errors.New("stream: no legs")
	}
	buf := opts.Buffer
	if buf <= 0 {
		buf = DefaultBuffer
	}
	s := &Sub{
		out:  make(chan *core.Entry, buf),
		stop: make(chan struct{}),
		met:  opts.Metrics,
	}
	from := make(map[int]Pos, len(opts.From))
	for _, p := range opts.From {
		from[p.Shard] = p
	}
	pls := make([]*pumpLeg, len(legs))
	for i, l := range legs {
		cur, err := l.Svc.OpenCursor(path)
		if err != nil {
			return nil, fmt.Errorf("stream: open %q on shard %d: %w", path, l.Shard, err)
		}
		if p, ok := from[l.Shard]; ok {
			if err := cur.SeekPos(p.Block, p.Rec); err != nil {
				return nil, fmt.Errorf("stream: resume shard %d: %w", l.Shard, err)
			}
		} else if !opts.FromStart {
			cur.SeekEnd()
		}
		pls[i] = &pumpLeg{svc: l.Svc, shard: l.Shard, cur: cur}
	}
	if s.met != nil {
		s.met.subs.Add(1)
	}
	go s.pump(pls)
	return s, nil
}

// pumpLeg is one shard's tail within a subscription.
type pumpLeg struct {
	svc   *core.Service
	shard int
	cur   *core.Cursor
	pend  *core.Entry // next undelivered entry, nil when the leg is drained
	seq   uint64      // TailSeq observed before the scan that drained it
}

// pump drives the subscription: scan the legs, deliver the lowest
// (timestamp, shard) pending entry, park on the tail notifiers when every
// leg is drained.
func (s *Sub) pump(legs []*pumpLeg) {
	defer func() {
		if s.met != nil {
			s.met.subs.Add(-1)
		}
		close(s.out)
	}()
	var wokeAt time.Time // set when a tail wake ended an idle park
	for {
		// Refill: each drained leg snapshots its publish sequence before
		// scanning, so a publish racing the scan trips the notifier.
		for _, l := range legs {
			if l.pend != nil {
				continue
			}
			l.seq = l.svc.TailSeq()
			e, err := l.cur.Next()
			switch {
			case err == nil:
				e.Shard = l.shard
				l.pend = e
			case err == io.EOF:
				// Live edge for this leg.
			default:
				s.fail(err)
				return
			}
		}
		// Deliver the lowest (timestamp, shard) pending entry.
		var pick *pumpLeg
		for _, l := range legs {
			if l.pend == nil {
				continue
			}
			if pick == nil || l.pend.Timestamp < pick.pend.Timestamp ||
				(l.pend.Timestamp == pick.pend.Timestamp && l.shard < pick.shard) {
				pick = l
			}
		}
		if pick == nil {
			// Every leg is at the live edge: the consumer has everything,
			// so leaving catch-up (if we were in it) and park for a wake.
			s.live.Store(true)
			if !s.waitAny(legs) {
				return
			}
			wokeAt = time.Now()
			continue
		}
		e := pick.pend
		pick.pend = nil
		if !s.deliver(e) {
			return
		}
		if s.met != nil {
			if !wokeAt.IsZero() {
				s.met.wakeToDeliver.ObserveSince(wokeAt)
				wokeAt = time.Time{}
			}
			s.met.delivered.Inc()
			s.met.lag.Observe(time.Duration(nowNanos() - e.Timestamp))
			s.met.buffered.Set(int64(len(s.out)))
		}
	}
}

// nowNanos is the wall clock used for the delivery-lag instrument; entry
// timestamps are server Unix nanoseconds, so the difference is the time an
// entry spent between commit and delivery (meaningless, but harmless, under
// synthetic test clocks).
var nowNanos = func() int64 { return time.Now().UnixNano() }

// deliver hands an entry to the subscriber. The fast path is a non-blocking
// send into the bounded buffer. When the buffer is full the subscription
// drops out of the live stream — catch-up mode — and the pump waits at
// cursor pace for the consumer to drain; the cursor itself is the resume
// position, so nothing is lost or repeated.
func (s *Sub) deliver(e *core.Entry) bool {
	// Counted before the send, undone if the entry never goes out: a consumer
	// holding the entry must not read a Delivered that does not include it.
	s.delivered.Add(1)
	select {
	case s.out <- e:
		return true
	case <-s.stop:
		s.delivered.Add(-1)
		return false
	default:
	}
	s.catchups.Add(1)
	s.live.Store(false)
	if s.met != nil {
		s.met.catchups.Inc()
	}
	select {
	case s.out <- e:
		return true
	case <-s.stop:
		s.delivered.Add(-1)
		return false
	}
}

// waitAny parks until any leg's tail publishes (or the subscription stops).
// Legs share core's broadcast notifier; a closed service wakes immediately
// and the next scan surfaces its error.
func (s *Sub) waitAny(legs []*pumpLeg) bool {
	if len(legs) == 1 {
		select {
		case <-legs[0].svc.TailNotify(legs[0].seq):
			return true
		case <-s.stop:
			return false
		}
	}
	wake := make(chan struct{}, 1)
	cancel := make(chan struct{})
	defer close(cancel)
	for _, l := range legs {
		go func(ch <-chan struct{}) {
			select {
			case <-ch:
				select {
				case wake <- struct{}{}:
				default:
				}
			case <-cancel:
			}
		}(l.svc.TailNotify(l.seq))
	}
	select {
	case <-wake:
		return true
	case <-s.stop:
		return false
	}
}

func (s *Sub) fail(err error) {
	s.mu.Lock()
	s.failure = err
	s.mu.Unlock()
}

// Recv returns the next entry in delivery order. It blocks until an entry
// arrives, ctx is done, or the subscription ends (Close → ErrClosed; a pump
// error — e.g. the service closed underneath — surfaces as that error after
// the buffered entries drain).
func (s *Sub) Recv(ctx context.Context) (*core.Entry, error) {
	select {
	case e, ok := <-s.out:
		if !ok {
			return nil, s.endErr()
		}
		if s.met != nil {
			s.met.buffered.Set(int64(len(s.out)))
		}
		return e, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Sub) endErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return s.failure
	}
	return ErrClosed
}

// Close stops the subscription. Entries already buffered are discarded.
func (s *Sub) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	return nil
}

// Stats returns a snapshot of subscription activity.
func (s *Sub) Stats() Stats {
	return Stats{
		Delivered: s.delivered.Load(),
		CatchUps:  s.catchups.Load(),
		Live:      s.live.Load(),
		Buffered:  len(s.out),
	}
}
