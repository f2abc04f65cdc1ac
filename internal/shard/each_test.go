package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"clio/internal/archive"
	"clio/internal/blockfmt"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// eachHarness is a four-shard store with a cold tier on every shard, so a
// volume can be compacted and its entries served through redirection, and
// with its devices at hand, so a block can be invalidated under a reader.
type eachHarness struct {
	st   *Store
	mu   sync.Mutex
	devs []map[uint32]wodev.Device // per shard, by volume index
}

func newEachHarness(t *testing.T) *eachHarness {
	t.Helper()
	h := &eachHarness{devs: make([]map[uint32]wodev.Device, 4)}
	var clock atomic.Int64 // one clock: the merged root orders by it
	svcs := make([]*core.Service, len(h.devs))
	for i := range svcs {
		i := i
		h.devs[i] = make(map[uint32]wodev.Device)
		opt := core.Options{
			BlockSize: 256,
			Degree:    4,
			Now:       func() int64 { return clock.Add(1000) },
			Allocate: func(_ volume.SeqID, index uint32, _ uint64, blockSize int) (wodev.Device, error) {
				d := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 16})
				h.mu.Lock()
				h.devs[i][index] = d
				h.mu.Unlock()
				return d, nil
			},
			Cold: &core.ColdTier{
				Backend: archive.NewMem(),
				State:   core.NewMemState(),
				Release: func(uint32) error { return nil },
			},
		}
		d, err := opt.Allocate(volume.SeqID{}, 0, 0, opt.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if svcs[i], err = core.New(d, opt); err != nil {
			t.Fatal(err)
		}
	}
	st, err := New(svcs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h.st = st
	return h
}

// invalidateMiddle invalidates a block of the given shard at or past from
// that holds a middle fragment of a chain (a record both continued and
// continuing) and is neither the shard's last sealed block nor in a demoted
// volume. It reports the global block, or -1 when there is none.
func (h *eachHarness) invalidateMiddle(shard, from int) int {
	svc := h.st.Service(shard)
	sealed := svc.Status().SealedEnd
	for _, v := range svc.Volumes() {
		start := int(v.Hdr.StartOffset)
		for g := max(from, start); g < start+v.DataCapacity() && g < sealed-1; g++ {
			img := make([]byte, v.Dev.BlockSize())
			if v.Dev.ReadBlock(v.DeviceBlock(g-start), img) != nil {
				continue
			}
			p, err := blockfmt.Parse(img)
			if err != nil {
				continue
			}
			var r blockfmt.RecordView
			for i := range p.Len() {
				if p.Record(i, &r); r.Continued && r.Continues {
					if err := v.Dev.Invalidate(v.DeviceBlock(g - start)); err != nil {
						return -1
					}
					svc.FlushCache()
					return g
				}
			}
		}
	}
	return -1
}

// sameEntries reports whether two entries are the same entry read alike.
func sameEntries(a, b *logapi.Entry) bool {
	x, y := *a, *b
	if len(x.Data) == 0 && len(y.Data) == 0 {
		x.Data, y.Data = nil, nil
	}
	if len(x.ExtraIDs) == 0 && len(y.ExtraIDs) == 0 {
		x.ExtraIDs, y.ExtraIDs = nil, nil
	}
	return reflect.DeepEqual(x, y)
}

// TestNextEachDifferential drives a routed cursor (a parent log on one shard)
// and the merged root of four shards through a seeded op stream, reading each
// twice: in batches of random size through NextEach, and entry by entry
// through Next on a twin cursor, stepped inside the batch's visitor so that
// both see the store in the same state. Every entry visited must be the one
// Next returns. The stream covers the cases the batch loop decides
// differently from one step: a sublog created between batches and inside a
// batch, also while the staged tail block is being scanned (the loop
// re-checks the catalog generation each time it takes a block); entries
// whose fragments cross blocks; a compacted volume served through
// redirection; a middle fragment's block invalidated ahead of the readers;
// and the end of the log at the staged tail, after which an append must be
// the next batch's first entry.
func TestNextEachDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, path := range []string{"/p", "/"} {
			t.Run(fmt.Sprintf("seed%d%s", seed, path), func(t *testing.T) {
				runEachDifferential(t, seed, path)
			})
		}
	}
}

func runEachDifferential(t *testing.T, seed int64, path string) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	h := newEachHarness(t)
	st := h.st
	pShard, err := st.ShardFor("/p")
	if err != nil {
		t.Fatal(err)
	}
	create := func(p string) logapi.ID {
		t.Helper()
		id, err := st.CreateLog(ctx, p, 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	fam := []logapi.ID{create("/p"), create("/p/a"), create("/p/b")}
	// Logs beside /p: dead ones on its shard (retired, so their volumes
	// compact), live ones on every shard.
	var dead, beside []logapi.ID
	for i := 0; len(dead) < 2 || len(beside) < 6; i++ {
		p := fmt.Sprintf("/x%02d", i)
		if sh, _ := st.ShardFor(p); sh == pShard && len(dead) < 2 {
			dead = append(dead, create(p))
		} else if len(beside) < 6 {
			beside = append(beside, create(p))
		}
	}
	n := 0
	payload := func(tag string) []byte {
		n++
		size := 10 + rng.Intn(70)
		if rng.Intn(8) == 0 {
			size = 500 + rng.Intn(500) // three to five fragments of 256-byte blocks
		}
		b := bytes.Repeat([]byte{byte('a' + n%26)}, size)
		copy(b, fmt.Sprintf("%s-%05d-", tag, n))
		return b
	}
	appendTo := func(id logapi.ID, tag string) {
		t.Helper()
		opts := core.AppendOptions{Timestamped: rng.Intn(3) == 0, Forced: rng.Intn(8) == 0}
		if _, err := st.Append(ctx, id, payload(tag), opts); err != nil {
			t.Fatal(err)
		}
	}
	famN := 0
	for len(st.Service(pShard).Volumes()) < 6 {
		switch k := rng.Intn(10); {
		case k < 2:
			appendTo(fam[rng.Intn(len(fam))], "p")
			famN++
		case k < 8:
			appendTo(dead[rng.Intn(len(dead))], "dead")
		default:
			appendTo(beside[rng.Intn(len(beside))], "beside")
		}
	}
	for _, id := range dead {
		p, _ := st.PathOf(id)
		if err := st.Retire(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Force(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := st.CompactOnce(ctx, core.CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.VolumesReloc == 0 {
		t.Fatalf("nothing compacted: %+v", res)
	}

	batchCur, err := st.Cursor(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	stepCur, err := st.Cursor(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	var (
		visited   int
		lastBlock = make([]int, 4)
		redirects int // entries read at a lower block than the one before
		created   int
		midBatch  int // sublogs created inside a batch
		parked    int // appends after a batch ended at the end of the log
		lost      int // middle blocks invalidated
	)
	newSublog := func() {
		created++
		fam = append(fam, create(fmt.Sprintf("/p/n%02d", created)))
	}
	// mutate is what a visitor may do to the store in the middle of a
	// batch: create a sublog and write to it and around it, enough to seal
	// blocks past the one being scanned.
	mutate := func() {
		newSublog()
		midBatch++
		for i := 3 + rng.Intn(20); i > 0; i-- {
			if rng.Intn(2) == 0 {
				appendTo(fam[len(fam)-1], "new")
			} else {
				appendTo(fam[rng.Intn(len(fam))], "p")
			}
		}
	}
	// The redirected volumes lie at the start of the log; the catalog stays
	// as it is until the readers have passed them (a new sublog of /p is not
	// in the compacted volumes, so the routed cursor would stop redirecting).
	quiet := 0
	if path == "/p" {
		quiet = famN * 3 / 4
	}
	for round := 0; round < 250; round++ {
		max := 1 + rng.Intn(300)
		if rng.Intn(3) == 0 {
			max = 1 + rng.Intn(8)
		}
		mutateAt := -1
		if visited > quiet && rng.Intn(3) == 0 {
			mutateAt = rng.Intn(max)
		}
		k := 0
		got, err := batchCur.NextEach(ctx, max, func(e *logapi.Entry) bool {
			want, err := stepCur.Next(ctx)
			if err != nil {
				t.Fatalf("round %d entry %d: the batch visited %.20q, Next answered %v", round, k, e.Data, err)
			}
			if !sameEntries(e, want) {
				t.Fatalf("round %d entry %d of at most %d: the batch visited {log %d shard %d at %d.%d %.20q}, Next returned {log %d shard %d at %d.%d %.20q}",
					round, k, max, e.LogID, e.Shard, e.Block, e.Index, e.Data, want.LogID, want.Shard, want.Block, want.Index, want.Data)
			}
			if e.Block < lastBlock[e.Shard] {
				redirects++
			}
			lastBlock[e.Shard] = e.Block
			if k == mutateAt {
				mutate()
			}
			k++
			visited++
			return true
		})
		if got != k {
			t.Fatalf("round %d: NextEach reported %d entries and visited %d", round, got, k)
		}
		switch {
		case err == nil && got != max:
			t.Fatalf("round %d: stopped after %d of %d entries with no error", round, got, max)
		case err != nil && !errors.Is(err, io.EOF):
			t.Fatalf("round %d: %v", round, err)
		}
		if errors.Is(err, io.EOF) {
			// At the end of the log: an entry appended now is the next
			// batch's first of /p. (The root also reads the system records
			// the append may write first; and a batch that wrote to the log
			// itself may have ended on a tail image older than its writes.)
			parked++
			tag := fmt.Sprintf("after-eof-%d", parked)
			if _, err := st.Append(ctx, fam[rng.Intn(len(fam))], []byte(tag), core.AppendOptions{Forced: rng.Intn(2) == 0}); err != nil {
				t.Fatal(err)
			}
			var seen []string
			if _, err := batchCur.NextEach(ctx, 300, func(e *logapi.Entry) bool {
				want, err := stepCur.Next(ctx)
				if err != nil || !sameEntries(e, want) {
					t.Fatalf("round %d: after the end the batch visited %.20q, Next answered %v", round, e.Data, err)
				}
				seen = append(seen, string(e.Data))
				lastBlock[e.Shard] = e.Block
				visited++
				return true
			}); err != nil && !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			if path == "/p" && mutateAt < 0 && (len(seen) == 0 || seen[0] != tag) || !slices.Contains(seen, tag) {
				t.Fatalf("round %d: the batch after the end visited %.20q, want the entry appended there, %q, first", round, seen, tag)
			}
		}
		// Between batches: appends, a new sublog, a lost middle block.
		switch k := rng.Intn(10); {
		case k < 5:
			for i := 2 + rng.Intn(24); i > 0; i-- {
				if rng.Intn(5) < 3 {
					appendTo(fam[rng.Intn(len(fam))], "p")
				} else {
					appendTo(beside[rng.Intn(len(beside))], "beside")
				}
			}
		case k < 6 && visited > quiet:
			newSublog()
			appendTo(fam[len(fam)-1], "new")
		case k < 8:
			if g := h.invalidateMiddle(pShard, lastBlock[pShard]+2); g >= 0 {
				lost++
			}
		}
	}
	if midBatch == 0 || parked == 0 || lost == 0 {
		t.Fatalf("the stream missed a case: %d sublogs created inside a batch, %d ends of log, %d blocks invalidated", midBatch, parked, lost)
	}
	if path == "/p" && redirects == 0 {
		t.Fatal("the routed cursor never read through the compacted volume's copies")
	}
	t.Logf("%d entries; %d sublogs created (%d inside a batch), %d ends of log, %d middle blocks invalidated, %d redirected steps", visited, created, midBatch, parked, lost, redirects)
}
