package shard

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sync"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/stream"
)

var _ logapi.StreamService = (*Store)(nil)

// Watch opens a live tail subscription to the log file at path: the
// store's own cursor for path — the routed cursor, or the merged root
// cursor for "/" — that waits at the end of the log instead of returning
// io.EOF. The subscription is a *Sub, whose RecvEach also visits a run of
// entries in place.
func (st *Store) Watch(ctx context.Context, path string, opts logapi.WatchOptions) (logapi.Subscription, error) {
	cur, err := st.Cursor(ctx, path)
	if err != nil {
		return nil, err
	}
	// position places one shard's core cursor: at a listed From position,
	// else at the start or the end.
	position := func(c *core.Cursor, shard int) error {
		for _, p := range opts.From {
			if p.Shard == shard {
				if err := c.SeekPos(p.Block, p.Rec); err != nil {
					return fmt.Errorf("shard: resume shard %d: %w", shard, err)
				}
				return nil
			}
		}
		if !opts.FromStart {
			c.SeekEnd()
		}
		return nil
	}
	s := &Sub{cur: cur, stop: make(chan struct{}), met: st.streamMet.Load()}
	switch c := cur.(type) {
	case *rootCursor:
		s.svcs = st.svcs
		for _, sc := range c.subs {
			if err := position(sc.cur, sc.shard); err != nil {
				return nil, err
			}
		}
	case *cursor:
		s.svcs = st.svcs[c.shard : c.shard+1]
		if err := position(c.cur, c.shard); err != nil {
			return nil, err
		}
	}
	s.seqs = make([]uint64, len(s.svcs))
	s.met.SubAdd(1)
	return s, nil
}

// Sub is a live tail subscription: a store cursor that never returns
// io.EOF. Recv and RecvEach step the cursor in the receiver's goroutine;
// at the end of the log they park on the tail notifiers of the shards the
// cursor reads until group commit publishes, ctx is done or the
// subscription is closed. Delivery order is the cursor's (seal order per
// shard, lowest (timestamp, shard) first on the root), and an idle shard
// is never waited for. A Sub is safe for one receiver at a time; Close
// may be called from any goroutine.
type Sub struct {
	cur  Cursor
	svcs []*core.Service // the shards cur reads
	// seqs holds each shard's TailSeq, taken before the scan that found
	// the end: a publish racing the scan trips the notifier.
	seqs []uint64

	stop      chan struct{}
	closeOnce sync.Once

	met    *stream.Metrics
	wokeAt time.Time // set when a tail wake ended a park (metrics only)
}

var _ logapi.Subscription = (*Sub)(nil)

// Recv returns the next entry, waiting at the end of the log. It returns
// stream.ErrClosed after Close, ctx's error when ctx is done, and the
// cursor's error (a closed service, lost media) as is.
func (s *Sub) Recv(ctx context.Context) (*logapi.Entry, error) {
	var e *logapi.Entry
	_, err := s.await(ctx, nil, func(bool) (int, error) {
		var err error
		if e, err = s.cur.Next(ctx); err != nil {
			return 0, err
		}
		s.delivered(e)
		return 1, nil
	})
	return e, err
}

// RecvEach waits for the next entry like Recv, then visits it and the
// entries after it that are readable without waiting — up to max, until
// visit returns false — in place, in the style of Cursor.NextEach; it
// returns how many it visited. After a wait it visits the woken entry
// alone, so a live entry costs no second probe of the end of the log.
// visit's entry is scratch, as Cursor.NextEach's is.
//
// watch, when set, is for a receiver with more to wait on than ctx: each
// park calls it, waits on the context it returns instead of ctx — a park
// that context ends returns its cause — and calls the stop it returns as
// the park ends. Whatever watch starts lives only while the subscription
// waits; a call that finds entries readable never calls it.
func (s *Sub) RecvEach(ctx context.Context, max int, visit func(*logapi.Entry) bool, watch func() (context.Context, func())) (int, error) {
	if s.met != nil {
		inner := visit
		visit = func(e *logapi.Entry) bool { s.delivered(e); return inner(e) }
	}
	return s.await(ctx, watch, func(waited bool) (int, error) {
		if waited {
			max = 1
		}
		n, err := s.cur.NextEach(ctx, max, visit)
		if n > 0 {
			return n, nil // a short run ends at io.EOF
		}
		return 0, err
	})
}

// await runs step, a read of the cursor, until it yields entries or fails
// with anything but io.EOF, parking between tries (on watch's context, if
// set). Before each try it refuses a closed subscription and snapshots the
// shards' tail sequences; waited tells step a park came before it.
func (s *Sub) await(ctx context.Context, watch func() (context.Context, func()), step func(waited bool) (int, error)) (int, error) {
	for waited := false; ; waited = true {
		select {
		case <-s.stop:
			return 0, stream.ErrClosed
		default:
		}
		for i, svc := range s.svcs {
			s.seqs[i] = svc.TailSeq()
		}
		if n, err := step(waited); err != io.EOF {
			return n, err
		}
		pctx, stop := ctx, func() {}
		if watch != nil {
			pctx, stop = watch()
		}
		err := s.park(pctx)
		stop()
		if err != nil {
			return 0, err
		}
	}
}

// park waits until a shard publishes past the snapshot, ctx is done or
// the subscription is closed. The notifiers are taken before ctx.Done is
// consulted, so a publish after that call always ends the park as a wake.
// A closed service's notifier is already closed: the next scan surfaces
// its error.
func (s *Sub) park(ctx context.Context) error {
	woke := false
	if len(s.svcs) == 1 {
		wake := s.svcs[0].TailNotify(s.seqs[0])
		select {
		case <-wake:
			woke = true
		case <-ctx.Done():
		case <-s.stop:
		}
	} else {
		cases := make([]reflect.SelectCase, 0, len(s.svcs)+2)
		for i, svc := range s.svcs {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(svc.TailNotify(s.seqs[i]))})
		}
		cases = append(cases,
			reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())},
			reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.stop)})
		i, _, _ := reflect.Select(cases)
		woke = i < len(s.svcs)
	}
	switch {
	case woke:
		if s.met != nil {
			s.wokeAt = time.Now()
		}
		return nil
	case ctx.Err() != nil:
		return context.Cause(ctx)
	}
	return stream.ErrClosed
}

// delivered records one entry handed to the receiver.
func (s *Sub) delivered(e *logapi.Entry) {
	if s.met == nil {
		return
	}
	if !s.wokeAt.IsZero() {
		s.met.Woke(s.wokeAt)
		s.wokeAt = time.Time{}
	}
	s.met.Delivered(e.Timestamp, time.Now())
}

// Close ends the subscription: a parked receiver returns stream.ErrClosed,
// and so does every later Recv.
func (s *Sub) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.met.SubAdd(-1)
	})
	return nil
}

// RegisterStreamMetrics creates the clio_stream_* instruments in reg and
// attaches them to every subscription subsequently opened through Watch.
// Call it alongside RegisterMetrics, before serving traffic.
func (st *Store) RegisterStreamMetrics(reg *obs.Registry) *stream.Metrics {
	m := stream.RegisterMetrics(reg)
	st.streamMet.Store(m)
	return m
}
