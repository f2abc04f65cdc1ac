package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/client"
)

// checker counts operations attempted and operations failed — an error, a
// refused request or a failed correctness check — and keeps the first few
// failure messages for the report.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
}

func (c *checker) attempt(n int) { c.attempted.Add(int64(n)) }

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// lane is one benchmark connection with the log files it writes.
type lane struct {
	idx    int
	c      *client.Client
	stream *opStream
	ids    map[string]client.ID

	acked      int64 // ops of stream acknowledged so far, in stream order
	ackedBytes int64
}

func dialLane(ctx context.Context, l launcher, addr string, idx int) (*lane, error) {
	c, err := client.DialContext(ctx, addr, l.dialOptions(idx))
	if err != nil {
		return nil, fmt.Errorf("dial lane %d: %w", idx, err)
	}
	return &lane{idx: idx, c: c}, nil
}

// attach gives the lane its op stream and creates the stream's log files.
func (ln *lane) attach(ctx context.Context, s *opStream) error {
	ln.stream = s
	ln.ids = map[string]client.ID{}
	for _, path := range s.logs() {
		id, err := ln.c.CreateLog(ctx, path, 0o644, "bench")
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		ln.ids[path] = id
	}
	return nil
}

// appendNext sends the stream's next op. forced overrides the trace's own
// flag: preloads go unforced, measured appends forced.
func (ln *lane) appendNext(ctx context.Context, forced bool) error {
	op := ln.stream.next()
	_, err := ln.c.Append(ctx, ln.ids[op.Log], op.Data,
		client.AppendOptions{Timestamped: op.Timestamped, Forced: forced})
	if err != nil {
		return err
	}
	ln.acked++
	ln.ackedBytes += int64(len(op.Data))
	return nil
}

// preload appends n ops unforced.
func (ln *lane) preload(ctx context.Context, n int, chk *checker) error {
	chk.attempt(n)
	for i := 0; i < n; i++ {
		if err := ln.appendNext(ctx, false); err != nil {
			chk.fail("lane %d preload op %d: %v", ln.idx, i, err)
			return err
		}
	}
	return nil
}

// errUnsampled is returned by a loop op whose call is not to be sampled but
// after which the loop goes on: a result that failed its check (already
// counted by the checker) or a bookkeeping call such as a cursor rewind.
var errUnsampled = errors.New("bench: call not sampled")

// loopPlan is the timetable of a measured loop: a warm-up period and then
// `windows` measured periods, all of length win. Each period begins with a
// calibration slot of length calib, in which every lane stands still, the
// daemons are idle and the speed gauge is read.
type loopPlan struct {
	win     time.Duration
	calib   time.Duration
	windows int
}

func (p loopPlan) total() time.Duration { return time.Duration(1+p.windows) * p.win }

// slotRest is how much of a calibration slot is left at offset el into the
// loop; 0 outside the slots.
func (p loopPlan) slotRest(el time.Duration) time.Duration {
	if r := el % p.win; r < p.calib {
		return p.calib - r
	}
	return 0
}

// closedLoop calls op back to back, outside the plan's calibration slots,
// until the plan's time has elapsed since epoch, one call outstanding at a
// time — a caller of a log service waits for its ack. Every call that
// returns nil is sampled; any error but errUnsampled ends the loop and is
// returned.
func closedLoop(epoch time.Time, p loopPlan, op func() error) ([]sample, error) {
	samples := make([]sample, 0, 1<<16)
	for {
		t0 := time.Now()
		el := t0.Sub(epoch)
		if el >= p.total() {
			return samples, nil
		}
		if rest := p.slotRest(el); rest > 0 {
			time.Sleep(rest)
			continue
		}
		err := op()
		t1 := time.Now()
		switch err {
		case nil:
			samples = append(samples, sample{done: t1.Sub(epoch), lat: t1.Sub(t0)})
		case errUnsampled:
		default:
			return samples, err
		}
	}
}

// pacer is an open-loop due-time schedule: op i is due at start+i·interval
// whatever happened to the ops before it. A stalled send therefore delays
// the later ops' latencies (measured from their due instants) but never
// their schedule.
type pacer struct {
	start    time.Time
	interval time.Duration
	n        int
	now      func() time.Time
	sleep    func(time.Duration)
}

func newPacer(start time.Time, perSecond int) *pacer {
	return &pacer{start: start, interval: time.Second / time.Duration(perSecond), now: time.Now, sleep: time.Sleep}
}

// next waits for the next due instant (not at all when it has passed) and
// returns it.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	return due
}

// pacedLoop runs op on the pacer's schedule until the plan's time has
// elapsed since epoch, leaving out the due instants that fall into a
// calibration slot. Latency counts from the due instant; lateness is how
// long after it the op was actually sent.
func pacedLoop(p *pacer, epoch time.Time, plan loopPlan, op func() error) (samples []sample, late []time.Duration, err error) {
	for {
		due := p.next()
		if due.Sub(epoch) >= plan.total() {
			return samples, late, nil
		}
		if plan.slotRest(due.Sub(epoch)) > 0 {
			continue
		}
		sent := p.now()
		if err := op(); err != nil {
			return samples, late, err
		}
		done := p.now()
		samples = append(samples, sample{done: done.Sub(epoch), lat: done.Sub(due)})
		late = append(late, sent.Sub(due))
	}
}
