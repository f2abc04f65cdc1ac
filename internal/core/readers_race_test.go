package core_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/shard"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// raceLog is one writer's log file and what the writer has made of it.
type raceLog struct {
	path string
	id   uint16
	done atomic.Int64 // entries whose Append has returned
	// last is the newest returned entry: its sequence number and timestamp.
	last atomic.Pointer[[2]int64]
}

// raceEntry is entry seq of a writer: its number first, so a reader can
// tell which entry it holds, then padding that makes every 17th entry span
// three 256-byte blocks.
func raceEntry(log, seq int) []byte {
	head := fmt.Sprintf("w%d-%06d;", log, seq)
	if seq%17 == 16 {
		return []byte(head + strings.Repeat("fragmented ", 55))
	}
	return []byte(head + "entry")
}

// raceSeq checks that data is entry seq of a writer, wholly.
func raceSeq(data []byte, log int) (int, error) {
	head, _, ok := strings.Cut(string(data), ";")
	prefix := fmt.Sprintf("w%d-", log)
	if !ok || !strings.HasPrefix(head, prefix) {
		return 0, fmt.Errorf("entry %.40q is no entry of writer %d", data, log)
	}
	seq, err := strconv.Atoi(head[len(prefix):])
	if err != nil {
		return 0, err
	}
	if want := raceEntry(log, seq); string(want) != string(data) {
		return 0, fmt.Errorf("entry %d of writer %d reads %.60q", seq, log, data)
	}
	return seq, nil
}

// TestReadersAgainstWriters runs lock-free readers of every kind against
// writers making unforced and forced appends, and requires each reader to
// see every entry whose Append returned before the reader took its
// snapshot: a cursor scanning at the tail (and ReadAt of what it found, and
// the locator's Pending probe of its block), SeekTime to the newest returned
// entry, and a shard subscription. Each writer also requires an Append that
// returned to have woken every waiter that was parked before it. Run it
// under -race: the tail is published as a view of the writer's block, which
// readers seal while the writer goes on appending to it.
func TestReadersAgainstWriters(t *testing.T) {
	const (
		writers  = 2
		perLog   = 1500
		degree   = 16
		deadline = 60 * time.Second
	)
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 14})
	svc, err := core.New(dev, core.Options{BlockSize: 256, Degree: degree, CacheBlocks: 8, NVRAM: core.NewMemNVRAM()})
	if err != nil {
		t.Fatal(err)
	}
	st := shard.Single(svc)
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	logs := make([]*raceLog, writers)
	for i := range logs {
		l := &raceLog{path: fmt.Sprintf("/w%d", i)}
		if l.id, err = svc.CreateLog(l.path, 0o644, "test"); err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8*writers)
	run := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
				cancel()
			}
		}()
	}
	for i, l := range logs {
		run(fmt.Sprintf("writer %d", i), func() error {
			for seq := 0; seq < perLog && ctx.Err() == nil; seq++ {
				before := svc.TailSeq()
				ts, err := svc.Append(l.id, raceEntry(i, seq), core.AppendOptions{Timestamped: true, Forced: seq%5 == 4})
				if err != nil {
					return err
				}
				select {
				case <-svc.TailNotify(before):
				default:
					return fmt.Errorf("append %d returned without waking the waiters parked before it", seq)
				}
				l.last.Store(&[2]int64{int64(seq), ts})
				l.done.Store(int64(seq + 1))
			}
			return nil
		})
		run(fmt.Sprintf("tail cursor %d", i), func() error { return tailReader(ctx, svc, l, i, perLog, degree) })
		run(fmt.Sprintf("seeker %d", i), func() error { return seekReader(ctx, svc, l, i, perLog) })
		run(fmt.Sprintf("subscriber %d", i), func() error { return subReader(ctx, st, l, i, perLog) })
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// tailReader scans log l to its end again and again, checking that the
// entries come in order with none missing, that each scan reaches at least
// the entries whose Append returned before it began, and re-reading what it
// finds by ReadAt and by the locator's Pending probe.
func tailReader(ctx context.Context, svc *core.Service, l *raceLog, log, total, degree int) error {
	cur, err := svc.OpenCursorID(l.id)
	if err != nil {
		return err
	}
	ids := []uint16{l.id}
	next := 0 // the sequence number the cursor returns next
	for next < total {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		returned := int(l.done.Load())
		for {
			e, err := cur.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			seq, err := raceSeq(e.Data, log)
			if err != nil {
				return err
			}
			if seq != next {
				return fmt.Errorf("cursor returned entry %d, want %d", seq, next)
			}
			next++
			again, err := svc.ReadAt(e.Block, e.Index)
			if err != nil {
				return fmt.Errorf("ReadAt(%d, %d) of entry %d: %w", e.Block, e.Index, seq, err)
			}
			if string(again.Data) != string(e.Data) {
				return fmt.Errorf("ReadAt(%d, %d) of entry %d read %.40q", e.Block, e.Index, seq, again.Data)
			}
			span := e.Block / degree * degree
			if bm, known := svc.PendingLevel1(span, ids); known && !wire.Bitmap(bm[:]).Get(e.Block-span) {
				return fmt.Errorf("Pending over span %d misses block %d, which holds entry %d", span, e.Block, seq)
			}
		}
		if next < returned {
			return fmt.Errorf("a scan ended at entry %d, but %d appends had returned before it began", next, returned)
		}
	}
	return nil
}

// seekReader seeks to the newest entry whose Append has returned and
// requires Next to return exactly that entry.
func seekReader(ctx context.Context, svc *core.Service, l *raceLog, log, total int) error {
	cur, err := svc.OpenCursorID(l.id)
	if err != nil {
		return err
	}
	for ctx.Err() == nil {
		last := l.last.Load()
		if last == nil {
			runtime.Gosched() // the writer has not returned from its first append
			continue
		}
		seq, ts := int(last[0]), last[1]
		if err := cur.SeekTime(ts); err != nil {
			return err
		}
		e, err := cur.Next()
		if err != nil {
			return fmt.Errorf("SeekTime to returned entry %d, then Next: %w", seq, err)
		}
		if got, err := raceSeq(e.Data, log); err != nil || got != seq {
			return fmt.Errorf("SeekTime to entry %d returned entry %d (%v)", seq, got, err)
		}
		if seq == total-1 {
			return nil
		}
	}
	return ctx.Err()
}

// subReader follows log l through a shard subscription from its start and
// requires every entry, in order.
func subReader(ctx context.Context, st *shard.Store, l *raceLog, log, total int) error {
	sub, err := st.Watch(ctx, l.path, logapi.WatchOptions{FromStart: true})
	if err != nil {
		return err
	}
	defer sub.Close()
	for next := 0; next < total; next++ {
		e, err := sub.Recv(ctx)
		if err != nil {
			return fmt.Errorf("waiting for entry %d (%d appends returned): %w", next, l.done.Load(), err)
		}
		if seq, err := raceSeq(e.Data, log); err != nil || seq != next {
			return fmt.Errorf("subscription delivered entry %d, want %d (%v)", seq, next, err)
		}
	}
	return nil
}
