package core

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestTailNotifyWake: a reader blocked at the tail is woken by the next
// publish — no polling — and then sees the new entry.
func TestTailNotifyWake(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "before", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	seq := s.TailSeq()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF at the tail, got %v", err)
	}

	got := make(chan string, 1)
	go func() {
		<-s.TailNotify(seq)
		e, err := c.Next()
		if err != nil {
			got <- "err: " + err.Error()
			return
		}
		got <- string(e.Data)
	}()
	// Give the waiter time to block, then publish.
	time.Sleep(10 * time.Millisecond)
	mustAppend(t, s, id, "after", AppendOptions{Forced: true})
	select {
	case d := <-got:
		if d != "after" {
			t.Fatalf("woke with %q, want %q", d, "after")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tail waiter never woke after publish")
	}
}

// TestTailNotifyNoLostWakeup: the check-then-wait protocol — read TailSeq,
// scan, then TailNotify — must not lose a publish that lands between the
// scan and the wait. Hammer the interleaving with a tight appender.
func TestTailNotifyNoLostWakeup(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")

	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			mustAppend(t, s, id, "x", AppendOptions{Forced: true})
		}
	}()

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	deadline := time.After(30 * time.Second)
	for seen < n {
		seq := s.TailSeq()
		e, err := c.Next()
		if err == nil {
			_ = e
			seen++
			continue
		}
		if err != io.EOF {
			t.Fatalf("Next: %v", err)
		}
		select {
		case <-s.TailNotify(seq):
		case <-deadline:
			t.Fatalf("lost wakeup: saw %d/%d entries", seen, n)
		}
	}
	wg.Wait()
}

// TestTailNotifyClose: Close wakes blocked waiters.
func TestTailNotifyClose(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "x", AppendOptions{Forced: true})

	seq := s.TailSeq()
	done := make(chan struct{})
	go func() {
		<-s.TailNotify(seq)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by Close")
	}
}

// TestTailNotifyIdleFree: with no waiter installed, a publish must not
// allocate or touch anything beyond one atomic load (the perf gate for the
// force path). Indirectly assert: no waiter channel survives a publish.
func TestTailNotifyIdleFree(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "x", AppendOptions{Forced: true})
	if s.tailWake.Load() != nil {
		t.Fatal("idle publish left a waiter channel installed")
	}
}

// TestSeekEndStagedTail: SeekEnd with a staged partial tail block parks
// inside the block, so entries appended to that same block afterwards are
// still returned (the regression the live-tail path depends on).
func TestSeekEndStagedTail(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	// Forced append stages a partial tail block in NVRAM.
	mustAppend(t, s, id, "old", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF right after SeekEnd, got %v", err)
	}
	// This lands in the SAME staged tail block.
	mustAppend(t, s, id, "new1", AppendOptions{Forced: true})
	mustAppend(t, s, id, "new2", AppendOptions{Forced: true})
	for _, want := range []string{"new1", "new2"} {
		e, err := c.Next()
		if err != nil {
			t.Fatalf("Next after tail growth: %v", err)
		}
		if string(e.Data) != want {
			t.Fatalf("got %q, want %q", e.Data, want)
		}
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF at the new end, got %v", err)
	}
}

// TestSeekEndPrevStagedTail: after SeekEnd, Prev returns the last written
// entry even when it lives in the staged tail block.
func TestSeekEndPrevStagedTail(t *testing.T) {
	s, _ := newTestService(t, Options{NVRAM: NewMemNVRAM()})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "a", AppendOptions{Forced: true})
	mustAppend(t, s, id, "b", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	e, err := c.Prev()
	if err != nil {
		t.Fatalf("Prev after SeekEnd: %v", err)
	}
	if string(e.Data) != "b" {
		t.Fatalf("Prev got %q, want %q", e.Data, "b")
	}
}

// TestSeekEndNoTail: without NVRAM there is no staged tail; SeekEnd parks
// at the sealed end and still observes later appends.
func TestSeekEndNoTail(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	mustAppend(t, s, id, "old", AppendOptions{Forced: true})

	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	mustAppend(t, s, id, "new", AppendOptions{Forced: true})
	e, err := c.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if string(e.Data) != "new" {
		t.Fatalf("got %q, want %q", e.Data, "new")
	}
}

// TestSeekTimeBelowJustStartedTail: the writer publishes a new tail block
// before the block's first entry, so a time search can probe an image whose
// footer timestamp is not set yet (it reads as zero). Such a block dates
// nothing: taken for "first entry at time 0", it would pass for a landmark
// at or before any sought time, and the seek would land on it — past every
// entry it was looking for. The window is one append wide, so the test opens
// it by hand, with the tail on an entrymap boundary where the search probes.
func TestSeekTimeBelowJustStartedTail(t *testing.T) {
	s, _ := newTestService(t, Options{Degree: 4})
	defer s.Close()
	id := mustCreate(t, s, "/log")
	var stamps []int64
	for i := 0; len(stamps) < 12 || s.endShared()%4 != 0; i++ {
		if i > 1000 {
			t.Fatal("the end of the log never reached an entrymap boundary")
		}
		stamps = append(stamps, mustAppend(t, s, id, "entry, one block each", AppendOptions{Forced: true, Timestamped: true}))
	}
	s.mu.Lock()
	err := s.ensureTailLocked()
	tail := s.tailGlobal
	s.mu.Unlock()
	if err != nil || tail != s.endShared()-1 || tail%4 != 0 {
		t.Fatalf("started tail %d of %d blocks: %v", tail, s.endShared(), err)
	}
	if ts, ok, err := (*locatorSource)(s).BlockFirstTS(tail); ok || err != nil {
		t.Fatalf("an empty tail block dates itself %d (%v)", ts, err)
	}
	c, err := s.OpenCursor("/log")
	if err != nil {
		t.Fatal(err)
	}
	for back := 1; back <= 6; back++ {
		want := stamps[len(stamps)-back]
		if err := c.SeekTime(want); err != nil {
			t.Fatal(err)
		}
		if e, err := c.Next(); err != nil || e.Timestamp != want {
			t.Fatalf("SeekTime to entry %d from the end, then Next: %+v, %v; want the entry at %d", back, e, err, want)
		}
	}
}

// TestIdleWakeFree pins the streaming notifier's marginal cost on the
// group-commit path when nobody is subscribed: a counter bump and one
// atomic load — no allocation, no lock. This is what keeps
// BenchmarkForcedAppendParallel's seals/force unchanged with an idle
// subscriber registry.
func TestIdleWakeFree(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	if n := testing.AllocsPerRun(1000, func() {
		s.pubSeq.Add(1)
		s.wakeTail()
	}); n != 0 {
		t.Fatalf("idle tail publish allocates %v times per run, want 0", n)
	}
}
