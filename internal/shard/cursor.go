package shard

import (
	"context"
	"errors"
	"fmt"
	"io"

	"clio/internal/core"
	"clio/internal/logapi"
)

// ErrRootSeekPos reports a SeekPos on the merged root cursor, whose
// position spans every shard and has no single (block, rec) coordinate.
var ErrRootSeekPos = errors.New("shard: SeekPos is not defined on the merged root cursor")

// Cursor is a store cursor: a logapi.Cursor that also runs core's forward
// loop (core.Cursor.NextEach), visiting a run of entries in place. The
// routed and the merged root cursor implement it alike, so a reader of
// either fills a batch one way.
type Cursor interface {
	logapi.Cursor
	// NextEach visits up to max entries after the cursor position, in
	// order, advancing past each, until visit returns false or the log ends
	// (io.EOF) or fails; it returns how many it visited. visit's entry is
	// scratch: it must not be kept past the call. What an unfragmented
	// entry points to may be; the data of an entry whose fragments cross
	// blocks is the core cursor's scratch, overwritten by the next such
	// entry (core.Cursor.NextEach).
	NextEach(ctx context.Context, max int, visit func(*logapi.Entry) bool) (int, error)
}

// cursor is a routed cursor: every log file but the root lives on exactly
// one shard, so its cursor is the shard's core cursor with the shard
// ordinal stamped onto returned entries.
type cursor struct {
	cur   *core.Cursor
	shard int
}

var _ Cursor = (*cursor)(nil)

func (c *cursor) Next(ctx context.Context) (*logapi.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := c.cur.Next()
	if err != nil {
		return nil, err
	}
	e.Shard = c.shard
	return e, nil
}

func (c *cursor) NextEach(ctx context.Context, max int, visit func(*logapi.Entry) bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return c.cur.NextEach(max, func(e *logapi.Entry) bool {
		e.Shard = c.shard
		return visit(e)
	})
}

func (c *cursor) Prev(ctx context.Context) (*logapi.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, err := c.cur.Prev()
	if err != nil {
		return nil, err
	}
	e.Shard = c.shard
	return e, nil
}

func (c *cursor) SeekStart(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.cur.SeekStart()
	return nil
}

func (c *cursor) SeekEnd(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.cur.SeekEnd()
	return nil
}

func (c *cursor) SeekTime(ctx context.Context, ts int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.cur.SeekTime(ts)
}

func (c *cursor) SeekPos(ctx context.Context, block, rec int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.cur.SeekPos(block, rec)
}

func (c *cursor) Close() error { return nil }

// sub is one shard's leg of the merged root cursor. It holds at most one
// peeked-but-unconsumed entry; dir records which direction the underlying
// cursor was stepped to fetch it, so a direction switch can un-step the
// cursor (the gap-position model makes one opposite step return exactly
// the peeked entry).
type sub struct {
	cur   *core.Cursor
	shard int
	pend  logapi.Entry // valid while dir != 0
	dir   int          // +1: pend fetched by Next; -1: by Prev; 0: no pend
}

// peekNext returns the sub's next entry without consuming it, or nil at
// EOF. The entry is the sub's own, valid until it is consumed.
func (s *sub) peekNext() (*logapi.Entry, error) {
	if s.dir == +1 {
		return &s.pend, nil
	}
	if s.dir != 0 {
		// pend was fetched by Prev, so the gap sits before it; step
		// forward across it to undo the peek.
		if _, err := s.cur.Next(); err != nil {
			return nil, err
		}
		s.dir = 0
	}
	n, err := s.cur.NextEach(1, func(e *logapi.Entry) bool { s.pend = *e; return true })
	if n == 0 {
		if err == io.EOF {
			err = nil
		}
		return nil, err
	}
	s.pend.Shard, s.dir = s.shard, +1
	return &s.pend, nil
}

// peekPrev mirrors peekNext toward the start.
func (s *sub) peekPrev() (*logapi.Entry, error) {
	if s.dir == -1 {
		return &s.pend, nil
	}
	if s.dir != 0 {
		if _, err := s.cur.Prev(); err != nil {
			return nil, err
		}
		s.dir = 0
	}
	e, err := s.cur.Prev()
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.pend, s.dir = *e, -1
	s.pend.Shard = s.shard
	return &s.pend, nil
}

func (s *sub) consume() { s.dir = 0 }

func (s *sub) reset() { s.dir = 0 }

// rootCursor merges every shard's volume sequence log into one stream
// ordered by (timestamp, shard): a K-way merge over peeked heads. Shard
// timestamps advance independently, so the merge order is the store-wide
// time order the root log promises (§2.1's "sequence of entries ...
// subsequent to, or prior to, any previous point in time"), with the shard
// ordinal breaking ties deterministically.
type rootCursor struct {
	subs []*sub
}

var _ Cursor = (*rootCursor)(nil)

func (st *Store) openRootCursor() (*rootCursor, error) {
	rc := &rootCursor{subs: make([]*sub, len(st.svcs))}
	for i, svc := range st.svcs {
		cur, err := svc.OpenCursor("/")
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		rc.subs[i] = &sub{cur: cur, shard: i}
	}
	return rc, nil
}

func (rc *rootCursor) Next(ctx context.Context) (*logapi.Entry, error) {
	var out logapi.Entry
	var leg *core.Cursor
	if n, err := rc.each(ctx, 1, func(s *sub) bool { out, leg = s.pend, s.cur; return true }); n == 0 {
		return nil, err
	}
	leg.Own(&out)
	return &out, nil
}

// NextEach runs the merge step up to max times: each step visits the
// lowest (timestamp, shard) peeked head and consumes it. A peeked head is
// its leg's cursor's entry as NextEach visited it: its data may be in the
// leg's scratch, which stays as it is until the head is consumed, as the
// leg is stepped forward only to peek again.
func (rc *rootCursor) NextEach(ctx context.Context, max int, visit func(*logapi.Entry) bool) (int, error) {
	return rc.each(ctx, max, func(s *sub) bool { return visit(&s.pend) })
}

// each is the merge loop: visit gets the leg whose head is next.
func (rc *rootCursor) each(ctx context.Context, max int, visit func(*sub) bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := 0
	for {
		var best *sub
		var bestE *logapi.Entry
		for _, s := range rc.subs {
			e, err := s.peekNext()
			if err != nil {
				return n, err
			}
			if e == nil {
				continue
			}
			if bestE == nil || e.Timestamp < bestE.Timestamp ||
				(e.Timestamp == bestE.Timestamp && s.shard < best.shard) {
				best, bestE = s, e
			}
		}
		if bestE == nil {
			return n, io.EOF
		}
		best.consume()
		n++
		if !visit(best) || n >= max {
			return n, nil
		}
	}
}

func (rc *rootCursor) Prev(ctx context.Context) (*logapi.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var best *sub
	var bestE *logapi.Entry
	for _, s := range rc.subs {
		e, err := s.peekPrev()
		if err != nil {
			return nil, err
		}
		if e == nil {
			continue
		}
		if bestE == nil || e.Timestamp > bestE.Timestamp ||
			(e.Timestamp == bestE.Timestamp && s.shard > best.shard) {
			best, bestE = s, e
		}
	}
	if bestE == nil {
		return nil, io.EOF
	}
	best.consume()
	out := *bestE
	return &out, nil
}

func (rc *rootCursor) SeekStart(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range rc.subs {
		s.reset()
		s.cur.SeekStart()
	}
	return nil
}

func (rc *rootCursor) SeekEnd(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range rc.subs {
		s.reset()
		s.cur.SeekEnd()
	}
	return nil
}

func (rc *rootCursor) SeekTime(ctx context.Context, ts int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, s := range rc.subs {
		s.reset()
		if err := s.cur.SeekTime(ts); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

func (rc *rootCursor) SeekPos(ctx context.Context, block, rec int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return ErrRootSeekPos
}

func (rc *rootCursor) Close() error { return nil }
