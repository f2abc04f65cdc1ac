package core

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"clio/internal/obs"
	"clio/internal/vclock"
	"clio/internal/wodev"
)

// TestCursorWaitsOutAChainBeingAppended: the writer publishes each block of
// a fragmented entry as it fills, before the next fragment exists, so a
// cursor at the live edge can find an entry whose chain does not assemble
// yet. It must park before that entry and return it once the append
// completes, not skip it as lost. A tail subscription parked on the
// notifier, as the one below, then waited forever: this is what made a
// consumer group occasionally never see its own join record.
func TestCursorWaitsOutAChainBeingAppended(t *testing.T) {
	big := bytes.Repeat([]byte("m"), 1008) // three fragments of 512-byte blocks
	for iter := 0; iter < 1500; iter++ {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
		s, err := New(dev, Options{BlockSize: 512, Degree: 8})
		if err != nil {
			t.Fatal(err)
		}
		if pre := iter % 600; pre > 0 {
			mustAppend(t, s, mustCreate(t, s, "/o"), string(big[:pre]), AppendOptions{Forced: true})
		}
		id := mustCreate(t, s, "/g")
		c, err := s.OpenCursorID(id)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() {
			for {
				seq := s.TailSeq()
				e, err := c.Next()
				if err == nil {
					if !bytes.Equal(e.Data, big) {
						err = io.ErrUnexpectedEOF
					}
					got <- err
					return
				}
				if err != io.EOF {
					got <- err
					return
				}
				select {
				case <-s.TailNotify(seq):
				case <-time.After(5 * time.Second):
					got <- io.EOF
					return
				}
			}
		}()
		mustAppend(t, s, id, string(big), AppendOptions{Forced: true, Timestamped: true})
		if err := <-got; err != nil {
			b, r := c.Position()
			t.Fatalf("iteration %d: the reader never got the entry (%v), cursor at %d.%d", iter, err, b, r)
		}
		s.Close()
	}
}

// TestNextEachCostsAsSteps: a batch is one sample of the read histogram,
// and under the cost model it is charged as the Nexts it replaces — one step
// per entry, and one for the step that finds the end.
func TestNextEachCostsAsSteps(t *testing.T) {
	open := func() (*Service, *vclock.Clock, *Cursor) {
		clk := vclock.New(vclock.DefaultModel())
		s, _ := newTestService(t, Options{Clock: clk})
		s.RegisterMetrics(obs.NewRegistry())
		id := mustCreate(t, s, "/l")
		for i := 0; i < 40; i++ {
			mustAppend(t, s, id, fmt.Sprintf("entry %02d", i), AppendOptions{})
		}
		if err := s.SealTail(); err != nil {
			t.Fatal(err)
		}
		c, err := s.OpenCursor("/l")
		if err != nil {
			t.Fatal(err)
		}
		clk.Reset()
		return s, clk, c
	}
	sa, batched, a := open()
	sb, stepped, b := open()
	var got []string
	for _, max := range []int{25, 100} {
		a.NextEach(max, func(e *Entry) bool { got = append(got, string(e.Data)); return true })
	}
	for i := 0; i <= 40; i++ {
		e, err := b.Next()
		if i == 40 {
			if err != io.EOF {
				t.Fatalf("Next past the last entry: %v", err)
			}
			break
		}
		if err != nil || string(e.Data) != got[i] {
			t.Fatalf("entry %d: Next %v %v, the batches visited %q", i, e, err, got[i])
		}
	}
	if batched.Elapsed() != stepped.Elapsed() {
		t.Errorf("two batches charged %v, 41 Nexts %v", batched.Elapsed(), stepped.Elapsed())
	}
	for _, cat := range stepped.Categories() {
		d1, n1 := batched.CategoryTotal(cat)
		d2, n2 := stepped.CategoryTotal(cat)
		if d1 != d2 || n1 != n2 {
			t.Errorf("%s: batches %v in %d charges, Nexts %v in %d", cat, d1, n1, d2, n2)
		}
	}
	if n := sa.met().readLat.Count(); n != 2 {
		t.Errorf("two batches took %d read samples", n)
	}
	if n := sb.met().readLat.Count(); n != 41 {
		t.Errorf("41 Nexts took %d read samples", n)
	}
}
