package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"clio/internal/entrymap"
	"clio/internal/obs"
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
			t.Fatalf("iteration %d: the reader never got the entry (%v), cursor at %d.%d", iter, err, c.block, c.rec)
		}
		s.Close()
	}
}

// TestNextEachCostsAsSteps: a batch is one sample of the read histogram,
// and it counts the cost units of the Nexts it replaces — one cursor step
// per entry, and one for the step that finds the end.
func TestNextEachCostsAsSteps(t *testing.T) {
	open := func() (*Service, *Cursor, *obs.Registry) {
		s, _ := newTestService(t, Options{})
		reg := obs.NewRegistry()
		s.RegisterMetrics(reg)
		id := mustCreate(t, s, "/l")
		for i := 0; i < 40; i++ {
			mustAppend(t, s, id, fmt.Sprintf("entry %02d", i), AppendOptions{})
		}
		if err := sealTail(s); err != nil {
			t.Fatal(err)
		}
		c, err := s.OpenCursor("/l")
		if err != nil {
			t.Fatal(err)
		}
		s.ResetCounters()
		return s, c, reg
	}
	sa, a, rega := open()
	sb, b, regb := open()
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
	batched, stepped := sa.Stats(), sb.Stats()
	if stepped.CursorSteps != 41 || stepped.BlocksInterpreted == 0 {
		t.Errorf("41 Nexts counted %d steps over %d blocks", stepped.CursorSteps, stepped.BlocksInterpreted)
	}
	if batched != stepped {
		t.Errorf("two batches counted %+v,\n41 Nexts %+v", batched, stepped)
	}
	if n := histCount(rega, "clio_core_read_seconds"); n != 2 {
		t.Errorf("two batches took %d read samples", n)
	}
	if n := histCount(regb, "clio_core_read_seconds"); n != 41 {
		t.Errorf("41 Nexts took %d read samples", n)
	}
}

// TestNextKeepsFragmentedEntry: NextEach joins an entry whose fragments
// cross blocks in the cursor's scratch, without allocating, and the next
// such entry overwrites it; the entry Next returns is the caller's, so it
// stays as it was through the forward reads that follow.
func TestNextKeepsFragmentedEntry(t *testing.T) {
	s, _ := newTestService(t, Options{})
	id := mustCreate(t, s, "/f")
	var want [][]byte
	for i := 0; i < 8; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 600+40*i) // three or four 256-byte blocks
		want = append(want, data)
		mustAppend(t, s, id, string(data), AppendOptions{})
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	c, err := s.OpenCursorID(id)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept.Data, want[0]) {
		t.Fatalf("Next returned %.12q, want %.12q", kept.Data, want[0])
	}
	k := 1
	n, err := c.NextEach(3, func(e *Entry) bool {
		if !bytes.Equal(e.Data, want[k]) {
			t.Fatalf("NextEach visited %.12q, want %.12q", e.Data, want[k])
		}
		k++
		return true
	})
	if n != 3 || err != nil {
		t.Fatalf("NextEach: %d, %v", n, err)
	}
	kept2, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept2.Data, want[4]) {
		t.Fatalf("second Next returned %.12q, want %.12q", kept2.Data, want[4])
	}
	var last []byte
	if _, err := c.NextEach(10, func(e *Entry) bool { last = e.Data; return true }); err != io.EOF {
		t.Fatalf("NextEach to the end: %v", err)
	}
	if !bytes.Equal(kept.Data, want[0]) || !bytes.Equal(kept2.Data, want[4]) {
		t.Fatalf("entries kept from Next changed: %.12q, %.12q", kept.Data, kept2.Data)
	}
	if !bytes.Equal(last, want[len(want)-1]) {
		t.Fatalf("the last entry visited was %.12q", last)
	}
	allocs := testing.AllocsPerRun(20, func() {
		c.SeekStart()
		if n, _ := c.NextEach(len(want), func(*Entry) bool { return true }); n != len(want) {
			t.Fatalf("visited %d fragmented entries, want %d", n, len(want))
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm NextEach over %d fragmented entries allocated %.1f objects, want 0", len(want), allocs)
	}
}

// TestCursorRunsFollowTheLog reads a parent log at its live edge, in
// batches through NextEach and entry by entry through Next on a twin, and
// checks every entry against the record of what was appended to the log
// and its sublogs, in order: a block step that takes a block off a run
// (the written level-1 span of the last search) must never pass over an
// entry. The stream covers what a run could get wrong: runs taken while the
// in-progress span the cursor parked in becomes written; sublogs created in
// the middle of a batch at the live edge, with their first entries sealed
// in the span the cursor steps into next (the step searches with the set it
// had, and must not keep that search's run once the set is rebuilt); level-1
// entrymap entries displaced past their boundary by a fragment chain; and
// entries whose fragments cross blocks first and last in a batch.
func TestCursorRunsFollowTheLog(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runCursorRuns(t, seed) })
	}
}

func runCursorRuns(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s, _ := newTestService(t, Options{}) // 256-byte blocks, degree 4
	bs, n := s.opt.BlockSize, s.opt.Degree
	fam := []uint16{mustCreate(t, s, "/p"), mustCreate(t, s, "/p/a")}
	other := mustCreate(t, s, "/o")
	var model [][]byte // what /p and its sublogs hold, in append order
	seq := 0
	appendTo := func(id uint16, size int) {
		t.Helper()
		seq++
		data := bytes.Repeat([]byte{byte('a' + seq%26)}, size)
		copy(data, fmt.Sprintf("%d-%06d-", id, seq))
		mustAppend(t, s, id, string(data), AppendOptions{Forced: rng.Intn(6) == 0, Timestamped: rng.Intn(3) == 0})
		if id != other {
			model = append(model, data)
		}
	}
	size := func() int {
		if rng.Intn(6) == 0 {
			return bs + rng.Intn(3*bs) // crosses one to three block ends
		}
		return 12 + rng.Intn(80)
	}
	appendSome := func(k int) {
		for ; k > 0; k-- {
			if rng.Intn(3) == 0 {
				appendTo(other, size())
			} else {
				appendTo(fam[rng.Intn(len(fam))], size())
			}
		}
	}
	appendSome(300)
	batch, err := s.OpenCursor("/p")
	if err != nil {
		t.Fatal(err)
	}
	step, err := s.OpenCursor("/p")
	if err != nil {
		t.Fatal(err)
	}
	var (
		read                           int   // model entries read
		parked                         []int // blocks a batch ended at the end of the log in
		crossed, createdInRun, created int
		fragFirst, fragLast            int
	)
	newSublog := func() uint16 {
		created++
		id := mustCreate(t, s, fmt.Sprintf("/p/n%03d", created))
		fam = append(fam, id)
		return id
	}
	for round := 0; round < 300; round++ {
		max := 1 + rng.Intn(40)
		k := 0
		wrote := false // a batch that wrote may end on a tail image older than its writes
		got, err := batch.NextEach(max, func(e *Entry) bool {
			if read >= len(model) || !bytes.Equal(e.Data, model[read]) {
				want := []byte("nothing")
				if read < len(model) {
					want = model[read]
				}
				t.Fatalf("round %d: entry %d of /p read %.16q at %d.%d, was appended as %.16q", round, read, e.Data, e.Block, e.Index, want)
			}
			if twin, err := step.Next(); err != nil || !bytes.Equal(twin.Data, e.Data) {
				t.Fatalf("round %d: entry %d: the batch visited %.16q, Next answered %v", round, read, e.Data, err)
			}
			if len(e.Data) > bs {
				if k == 0 {
					fragFirst++
				}
				if k == max-1 {
					fragLast++
				}
			}
			read++
			k++
			for _, b := range parked {
				if batch.run.Covers(b) {
					crossed++
					parked = parked[:0]
					break
				}
			}
			if len(model)-read < 3 && rng.Intn(3) == 0 {
				// At the live edge, inside the batch: a new sublog whose
				// first entries fill blocks of their own, then entries of
				// the set, sealed well past the cursor.
				if batch.run.End != 0 {
					createdInRun++
				}
				wrote = true
				id := newSublog()
				for i := 2 + rng.Intn(4); i > 0; i-- {
					appendTo(id, bs/2+rng.Intn(bs))
				}
				appendSome(4 + rng.Intn(8))
				for i := 3 * n; i > 0; i-- {
					appendTo(other, bs/2)
				}
			}
			return true
		})
		if got != k {
			t.Fatalf("round %d: NextEach reported %d entries and visited %d", round, got, k)
		}
		if err == io.EOF && !wrote {
			if read != len(model) {
				t.Fatalf("round %d: the end of the log after %d of the %d entries appended", round, read, len(model))
			}
			if _, err := step.Next(); err != io.EOF {
				t.Fatalf("round %d: the batch ended the log, Next answered %v", round, err)
			}
			parked = append(parked, batch.block)
		} else if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		switch r := rng.Intn(10); {
		case r < 5:
			appendSome(rng.Intn(12))
		case r < 8:
			appendSome(12 + rng.Intn(30)) // enough to write the span parked in
		case r < 9:
			appendTo(newSublog(), size())
		}
	}
	// The level-1 entrymap entries a fragment chain pushed past their
	// boundary block.
	displaced := 0
	for b := n; b < s.snap().sealedEnd; b += n {
		db, err := s.decodeBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		here := false
		for _, sl := range db.entrymaps() {
			v := sl.v
			if sl.fragmented {
				data, err := s.assemble(b, sl.rec, &db.p)
				if err != nil {
					t.Fatal(err)
				}
				if v, err = entrymap.DecodeView(data); err != nil {
					t.Fatal(err)
				}
			}
			here = here || v.Level == 1 && v.Boundary == b
		}
		if !here {
			displaced++
		}
	}
	if crossed == 0 || createdInRun == 0 || displaced == 0 || fragFirst == 0 || fragLast == 0 {
		t.Fatalf("the stream missed a case: %d runs over a span a batch ended in, %d sublogs created inside a batch holding a run, %d displaced level-1 entries, %d/%d batches with a fragmented first/last entry",
			crossed, createdInRun, displaced, fragFirst, fragLast)
	}
	t.Logf("%d entries; %d runs over a span a batch ended in, %d sublogs (%d inside a batch holding a run), %d displaced level-1 entries, %d/%d batches with a fragmented first/last entry",
		read, crossed, created, createdInRun, displaced, fragFirst, fragLast)
}
