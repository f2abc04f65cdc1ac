package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/shard"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// stepCursor is a synthetic cursor for the fill loop: its NextEach takes
// entries, or the failure that ends them, from a step function, one per
// step. Like a store cursor it hands the visitor one scratch entry, which
// it overwrites with garbage when the call ends, so a visitor that kept it
// would answer garbage.
type stepCursor struct {
	shard.Cursor // only NextEach is implemented
	step         func(context.Context) (*core.Entry, error)
}

func (c stepCursor) NextEach(ctx context.Context, max int, visit func(*core.Entry) bool) (int, error) {
	var scratch core.Entry
	defer func() { scratch = core.Entry{LogID: 0xBAD, Data: []byte("clobbered")} }()
	for n := 0; n < max; {
		e, err := c.step(ctx)
		if err != nil {
			return n, err
		}
		scratch = *e
		if n++; !visit(&scratch) {
			return n, nil
		}
	}
	return max, nil
}

// fillEntries runs fillReply over a step function, with a fresh scratch.
func fillEntries(ctx context.Context, step func(context.Context) (*core.Entry, error), batched bool, want uint64, delivered *obs.Counter) reply {
	var buf []byte
	return fillReply(ctx, stepCursor{step: step}.NextEach, batched, want, delivered, &buf)
}

// twoPassFill is the fill loop as it was before the cursor's forward loop
// reached the server, kept as the oracle of the response bytes: it steps
// the cursor once per entry, holds every entry, encodes each head once to
// size the batch and once into it.
func twoPassFill(ctx context.Context, step func(context.Context) (*logapi.Entry, error), batched bool, want uint64) reply {
	limit := 1
	if batched {
		limit = int(min(max(want, 1), MaxBatchEntries))
	}
	var batch [MaxBatchEntries]*core.Entry
	var head [64]byte
	n, size := 0, 0
	for n < limit && size < MaxBatchBytes {
		e, err := step(ctx)
		if err != nil {
			if n > 0 {
				break
			}
			if err == io.EOF {
				return reply{status: StatusEOF}
			}
			return errReply(err)
		}
		if !batched {
			return reply{status: StatusOK, head: appendEntryHead(nil, e), body: e.Data}
		}
		batch[n] = e
		n++
		size += len(appendEntryHead(head[:0], e)) + len(e.Data)
	}
	count := wire.PutUvarint(head[:0], uint64(n))
	out := append(make([]byte, 0, len(count)+size), count...)
	for _, e := range batch[:n] {
		out = append(appendEntryHead(out, e), e.Data...)
	}
	return okReply(out)
}

// randomEntry draws an entry exercising every field of the entry layout:
// one- to three-byte uvarints, extra ids, empty and block-sized data.
func randomEntry(rng *rand.Rand) *core.Entry {
	e := &core.Entry{
		LogID:       uint16(rng.Intn(wire.MaxLogID + 1)),
		Timestamp:   rng.Int63() - rng.Int63(),
		Timestamped: rng.Intn(2) == 0,
		Forced:      rng.Intn(3) == 0,
		Block:       rng.Intn(1 << uint(1+rng.Intn(22))),
		Index:       rng.Intn(300),
		Shard:       rng.Intn(4),
	}
	for i := rng.Intn(4) - 1; i > 0; i-- {
		e.ExtraIDs = append(e.ExtraIDs, uint16(rng.Intn(wire.MaxLogID+1)))
	}
	switch rng.Intn(8) {
	case 0:
	case 1:
		e.Data = make([]byte, 1000+rng.Intn(9000))
	default:
		e.Data = make([]byte, rng.Intn(120))
	}
	rng.Read(e.Data)
	return e
}

// TestFillReplyKeepsItsBytes: the one-pass fill answers byte for byte what
// the two-pass fill answered, for random entries, wants and endings (EOF or
// an error after any number of entries), in both framings; and it leaves the
// cursor where the two-pass fill left it.
func TestFillReplyKeepsItsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	boom := errors.New("boom")
	var scratch []byte // one connection's, across every request below
	for trial := 0; trial < 400; trial++ {
		entries := make([]*core.Entry, rng.Intn(MaxBatchEntries+40))
		for i := range entries {
			entries[i] = randomEntry(rng)
		}
		if rng.Intn(4) == 0 { // the smallest entries: the count cap binds
			entries = minimalEntries(MaxBatchEntries + rng.Intn(40))
		}
		end := error(io.EOF)
		if rng.Intn(3) == 0 {
			end = boom
		}
		steps := func() (func(context.Context) (*core.Entry, error), *int) {
			i := 0
			return func(context.Context) (*core.Entry, error) {
				if i == len(entries) {
					return nil, end
				}
				i++
				return entries[i-1], nil
			}, &i
		}
		batched := rng.Intn(5) != 0
		want := uint64(rng.Intn(MaxBatchEntries + 50))
		oldStep, oldAt := steps()
		newStep, newAt := steps()
		for req := 0; ; req++ {
			was := twoPassFill(context.Background(), oldStep, batched, want).flatten()
			var delivered obs.Counter
			rep := fillReply(context.Background(), stepCursor{step: newStep}.NextEach, batched, want, &delivered, &scratch).flatten()
			if rep.status != was.status || !bytes.Equal(rep.head, was.head) || *newAt != *oldAt {
				t.Fatalf("trial %d request %d (batched %v, want %d): status %d, %d bytes, cursor at %d; two-pass: status %d, %d bytes, cursor at %d",
					trial, req, batched, want, rep.status, len(rep.head), *newAt, was.status, len(was.head), *oldAt)
			}
			if rep.status != StatusOK {
				break
			}
			if cap(rep.head) != len(rep.head) {
				t.Fatalf("trial %d: a %d-byte answer holds %d bytes", trial, len(rep.head), cap(rep.head))
			}
			if n := batchLen(t, rep.head, batched); delivered.Value() != int64(n) {
				t.Fatalf("trial %d: %d entries answered, %d counted", trial, n, delivered.Value())
			}
		}
	}
}

// batchLen is the number of entries in an answer.
func batchLen(t *testing.T, payload []byte, batched bool) int {
	t.Helper()
	if !batched {
		return 1
	}
	got, err := DecodeEntryBatch(newReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return len(got)
}

// TestFillReplyOverStoreCursors: over real cursors — a parent log with
// sublogs on one shard, and the merged root of four shards — the one-pass
// fill answers every request of a scan at random wants byte for byte as the
// two-pass fill over a twin cursor answers it, to the end of the log.
func TestFillReplyOverStoreCursors(t *testing.T) {
	ctx := context.Background()
	svcs := make([]*core.Service, 4)
	for i := range svcs {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
		now := int64(i)
		svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8,
			Now: func() int64 { now += 1000; return now }})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	st, err := shard.New(svcs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(7))
	var ids []logapi.ID
	for _, p := range []string{"/p", "/p/a", "/p/b", "/q", "/r", "/s", "/t"} {
		id, err := st.CreateLog(ctx, p, 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	inP := 0 // entries of /p and its sublogs
	for i := 0; i < 900; i++ {
		data := make([]byte, rng.Intn(200))
		if rng.Intn(40) == 0 {
			data = make([]byte, 700+rng.Intn(900)) // fragments cross blocks
		}
		rng.Read(data)
		opts := core.AppendOptions{Timestamped: rng.Intn(2) == 0, Forced: rng.Intn(10) == 0}
		k := rng.Intn(len(ids))
		if k < 3 {
			inP++
		}
		if _, err := st.Append(ctx, ids[k], data, opts); err != nil {
			t.Fatal(err)
		}
	}
	for path, atLeast := range map[string]int{"/p": inP, "/": 900} {
		oldCur, err := st.Cursor(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		newCur, err := st.Cursor(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []byte
		entries := 0
		for req := 0; ; req++ {
			batched := rng.Intn(6) != 0
			want := uint64(rng.Intn(MaxBatchEntries + 20))
			was := twoPassFill(ctx, oldCur.Next, batched, want).flatten()
			rep := fillReply(ctx, newCur.NextEach, batched, want, nil, &scratch).flatten()
			if rep.status != was.status || !bytes.Equal(rep.head, was.head) {
				t.Fatalf("%s request %d (batched %v, want %d): status %d, %d bytes; two-pass: status %d, %d bytes",
					path, req, batched, want, rep.status, len(rep.head), was.status, len(was.head))
			}
			if rep.status != StatusOK {
				break
			}
			entries += batchLen(t, rep.head, batched)
		}
		if entries < atLeast {
			t.Fatalf("%s: the scan answered %d entries, want at least %d", path, entries, atLeast)
		}
		t.Logf("%s: %d entries, same bytes", path, entries)
	}
}
