package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

func TestConcurrentAppendersAndReaders(t *testing.T) {
	var nowMu sync.Mutex
	var now int64
	s, _ := newTestService(t, Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { nowMu.Lock(); defer nowMu.Unlock(); now += 1000; return now },
	})
	defer s.Close()

	const writers = 4
	const perWriter = 200
	ids := make([]uint16, writers)
	for i := range ids {
		ids[i] = mustCreate(t, s, fmt.Sprintf("/w%d", i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Append(ids[w], []byte(fmt.Sprintf("w%d-%04d", w, i)),
					AppendOptions{Forced: i%7 == 0}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		// A concurrent reader chasing the same log.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur, err := s.OpenCursorID(ids[w])
			if err != nil {
				errs <- err
				return
			}
			seen := 0
			for seen < perWriter {
				e, err := cur.Next()
				if err == io.EOF {
					continue // writer not done yet
				}
				if err != nil {
					errs <- err
					return
				}
				if want := fmt.Sprintf("w%d-%04d", w, seen); string(e.Data) != want {
					errs <- fmt.Errorf("reader %d: got %q want %q", w, e.Data, want)
					return
				}
				seen++
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everything is intact and ordered per log.
	for w := 0; w < writers; w++ {
		got := datas(readAll(t, s, fmt.Sprintf("/w%d", w)))
		if len(got) != perWriter {
			t.Fatalf("writer %d: %d entries", w, len(got))
		}
		for i, g := range got {
			if g != fmt.Sprintf("w%d-%04d", w, i) {
				t.Fatalf("writer %d entry %d: %q", w, i, g)
			}
		}
	}
}

func TestAppendErrorsAreAtomic(t *testing.T) {
	// An append that fails validation must leave no trace.
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/x")
	mustAppend(t, s, id, "before", AppendOptions{})
	if _, err := s.Append(id, make([]byte, MaxEntrySize+1), AppendOptions{}); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
	mustAppend(t, s, id, "after", AppendOptions{})
	if got := datas(readAll(t, s, "/x")); fmt.Sprint(got) != "[before after]" {
		t.Errorf("entries: %v", got)
	}
}

func TestSeekPosResume(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	id := mustCreate(t, s, "/resume")
	for i := 0; i < 30; i++ {
		mustAppend(t, s, id, fmt.Sprintf("e%02d", i), AppendOptions{})
	}
	// A monitoring pass drains ten entries and remembers its position.
	cur, _ := s.OpenCursor("/resume")
	var last *Entry
	for i := 0; i < 10; i++ {
		e, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		last = e
	}
	block, rec := cur.block, cur.rec

	// A fresh cursor (a later monitoring run) resumes from there.
	cur2, _ := s.OpenCursor("/resume")
	if err := cur2.SeekPos(block, rec); err != nil {
		t.Fatal(err)
	}
	e, err := cur2.Next()
	if err != nil || string(e.Data) != "e10" {
		t.Fatalf("resume: %v %q (after %q)", err, e.Data, last.Data)
	}
	// Resuming via the entry's own coordinates re-reads it...
	cur3, _ := s.OpenCursor("/resume")
	if err := cur3.SeekPos(last.Block, last.Index); err != nil {
		t.Fatal(err)
	}
	if e, err := cur3.Next(); err != nil || string(e.Data) != "e09" {
		t.Fatalf("seek before entry: %v", err)
	}
	// ...and Index+1 skips past it.
	if err := cur3.SeekPos(last.Block, last.Index+1); err != nil {
		t.Fatal(err)
	}
	if e, err := cur3.Next(); err != nil || string(e.Data) != "e10" {
		t.Fatalf("seek after entry: %v", err)
	}
	if err := cur3.SeekPos(-1, 0); err == nil {
		t.Error("negative position accepted")
	}
	// A rec past the block's records (any client can send one) is the gap
	// after its last record — for Prev too, which used to index past the end.
	var lastInBlock string
	for _, e := range readAll(t, s, "/resume") {
		if e.Block == last.Block {
			lastInBlock = string(e.Data)
		}
	}
	if err := cur3.SeekPos(last.Block, 1<<20); err != nil {
		t.Fatal(err)
	}
	if e, err := cur3.Prev(); err != nil || string(e.Data) != lastInBlock {
		t.Fatalf("Prev from past the block's last record: %v, %+v, want %q", err, e, lastInBlock)
	}
	if e, err := cur3.Next(); err != nil || string(e.Data) != lastInBlock {
		t.Fatalf("Next after that Prev: %v", err)
	}
}
