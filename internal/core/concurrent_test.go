package core

// Concurrency tests for the group-commit forced-append path and the
// lock-decomposed read path. Run them with -race; they are the directed
// counterparts of the repo-root chaos/soak tests.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"clio/internal/entrymap"
	"clio/internal/faults"
	"clio/internal/wodev"
)

// latentMem returns a MemDevice whose writes really sleep writeDelay so that
// a sealing leader blocks long enough for concurrent forces to pile into its
// successor's batch — essential on a single-CPU runner, where fast
// uncontended loops otherwise never interleave.
func latentMem(blockSize int, writeDelay time.Duration) wodev.Device {
	reg := faults.NewRegistry(0)
	reg.Arm("dev.write", faults.Fault{Delay: writeDelay})
	reg.Arm("dev.invalidate", faults.Fault{Delay: writeDelay})
	return wodev.Inject(wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 1 << 18}), reg, "dev")
}

func lockedNow() func() int64 {
	var mu sync.Mutex
	var now int64
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		now += 1000
		return now
	}
}

// TestConcurrentForcedAppendsDurableExactlyOnce drives many goroutines of
// forced appends through the group-commit path, then reopens the device as
// after a crash (no clean Close) and verifies every acknowledged entry is
// present exactly once with its acknowledged timestamp.
func TestConcurrentForcedAppendsDurableExactlyOnce(t *testing.T) {
	const goroutines = 16
	const perG = 40
	dev := latentMem(1024, 100*time.Microsecond)
	svc, err := New(dev, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1, Now: lockedNow()})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/gc", 0, "")
	if err != nil {
		t.Fatal(err)
	}

	type acked struct {
		payload string
		ts      int64
	}
	results := make([][]acked, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := fmt.Sprintf("g%02d-i%03d", g, i)
				ts, err := svc.Append(id, []byte(payload), AppendOptions{Forced: true})
				if err != nil && !IsDegraded(err) {
					t.Errorf("append %s: %v", payload, err)
					return
				}
				results[g] = append(results[g], acked{payload, ts})
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := svc.Stats()
	if st.ForcedWrites != goroutines*perG {
		t.Fatalf("ForcedWrites = %d, want %d", st.ForcedWrites, goroutines*perG)
	}
	if st.GroupCommits == 0 || st.BatchedForces == 0 {
		t.Fatalf("no group commits formed (GroupCommits=%d BatchedForces=%d); "+
			"the test did not exercise batching", st.GroupCommits, st.BatchedForces)
	}
	if st.BlocksSealed >= st.ForcedWrites {
		t.Errorf("BlocksSealed = %d not amortized below ForcedWrites = %d",
			st.BlocksSealed, st.ForcedWrites)
	}
	t.Logf("forced=%d sealed=%d groupCommits=%d batchedForces=%d",
		st.ForcedWrites, st.BlocksSealed, st.GroupCommits, st.BatchedForces)

	// Acknowledged timestamps must be unique across the whole run.
	want := make(map[string]int64, goroutines*perG)
	seenTS := make(map[int64]string, goroutines*perG)
	for _, rs := range results {
		for _, a := range rs {
			if prev, dup := seenTS[a.ts]; dup {
				t.Fatalf("timestamp %d acknowledged twice: %q and %q", a.ts, prev, a.payload)
			}
			seenTS[a.ts] = a.payload
			want[a.payload] = a.ts
		}
	}

	// "Crash": abandon svc without Close and recover from the device alone.
	svc2, err := Open([]wodev.Device{dev}, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1, Now: lockedNow()})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer svc2.Close()
	got := readAllEntries(t, svc2, "/gc")
	for payload, ts := range want {
		n, ok := got[payload]
		if !ok {
			t.Errorf("acknowledged entry %q (ts %d) lost across crash", payload, ts)
		} else if n != 1 {
			t.Errorf("entry %q recovered %d times, want exactly once", payload, n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("recovered %d distinct entries, want %d", len(got), len(want))
	}
}

// TestCrashMidBatchRecovery injects a crash at the tail seal (the
// core.seal.write fault point) while concurrent forced appends are
// batching, then reopens the device and verifies that every append
// acknowledged before the crash is present exactly once. Requests caught
// in the dying batch get ErrClosed (or the crash panic, for the leader)
// and make no durability claim.
func TestCrashMidBatchRecovery(t *testing.T) {
	const goroutines = 8
	dev := latentMem(1024, 100*time.Microsecond)
	reg := faults.NewRegistry(0)
	svc, err := New(dev, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1,
		Now: lockedNow(), Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/crash", 0, "")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	acked := make(map[string]int64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				payload := fmt.Sprintf("g%02d-i%04d", g, i)
				stopped := func() bool {
					// The leader whose batch hits the armed point unwinds
					// with the injected faults.Crash panic; treat it like
					// the process death it simulates.
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(faults.Crash); !ok {
								panic(r)
							}
						}
					}()
					ts, err := svc.Append(id, []byte(payload), AppendOptions{Forced: true})
					if err == nil || IsDegraded(err) {
						mu.Lock()
						acked[payload] = ts
						mu.Unlock()
						return false
					}
					if errors.Is(err, ErrClosed) {
						return true
					}
					t.Errorf("append %s: %v", payload, err)
					return true
				}()
				if stopped {
					return
				}
			}
		}(g)
	}

	// Let batches form, then arm the crash at the next tail-block write.
	time.Sleep(20 * time.Millisecond)
	reg.Arm(FaultSealWrite, faults.Fault{Crash: true, Times: 1})
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if reg.Fired(FaultSealWrite) != 1 {
		t.Fatalf("crash point fired %d times, want 1", reg.Fired(FaultSealWrite))
	}
	if len(acked) == 0 {
		t.Fatal("no appends were acknowledged before the crash")
	}

	// Reopen from the device alone and verify the acknowledged prefix.
	svc2, err := Open([]wodev.Device{dev}, Options{BlockSize: 1024, Degree: 16, CacheBlocks: -1, Now: lockedNow()})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer svc2.Close()
	got := readAllEntries(t, svc2, "/crash")
	for payload, ts := range acked {
		n, ok := got[payload]
		if !ok {
			t.Errorf("acknowledged entry %q (ts %d) lost across mid-batch crash", payload, ts)
		} else if n != 1 {
			t.Errorf("entry %q recovered %d times, want exactly once", payload, n)
		}
	}
	t.Logf("acked before crash: %d; distinct recovered: %d", len(acked), len(got))
}

// TestConcurrentReadersDuringAppends runs cursors over a growing log while
// writers (forced and unforced) append — under -race this exercises the
// tail-snapshot publication protocol and the lock-free sealed-block reads.
func TestConcurrentReadersDuringAppends(t *testing.T) {
	dev := latentMem(1024, 20*time.Microsecond)
	svc, err := New(dev, Options{BlockSize: 1024, Degree: 16, CacheBlocks: 64, Now: lockedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.CreateLog("/rw", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := svc.Append(id, []byte(fmt.Sprintf("seed-%04d", i)), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			forced := w == 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Append(id, []byte(fmt.Sprintf("w%d-%05d", w, i)),
					AppendOptions{Forced: forced}); err != nil && !IsDegraded(err) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := svc.OpenCursor("/rw")
			if err != nil {
				t.Errorf("open cursor: %v", err)
				return
			}
			var prev int64
			scanned := 0
			for scanned < 2000 {
				select {
				case <-stop:
					return
				default:
				}
				e, err := cur.Next()
				if err == io.EOF {
					cur.SeekStart()
					prev = 0
					continue
				}
				if err != nil {
					t.Errorf("cursor next: %v", err)
					return
				}
				if e.Timestamp < prev {
					t.Errorf("timestamps regressed: %d after %d", e.Timestamp, prev)
					return
				}
				prev = e.Timestamp
				scanned++
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// readAllEntries scans the named log from the start and returns payload
// occurrence counts.
func readAllEntries(t *testing.T, svc *Service, path string) map[string]int {
	t.Helper()
	cur, err := svc.OpenCursor(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for {
		e, err := cur.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("scan %s: %v", path, err)
		}
		got[string(e.Data)]++
	}
}

// TestConcurrentLocate runs SeekTime/Next/Prev on four cursors at once, each
// over its own sparse sublog so that most block steps leave the run of the
// search before and search again, with no lock between them. Beside a
// forced writer (on a fifth sublog, so the readers' logs stand still while
// the write point, the accumulator and the cache move under them) every
// cursor must answer call for call what a single-threaded replay of its
// calls answers. Then, on the quiescent store, where the searches a cursor
// runs and their counts are a function of its calls alone (the run a block
// step takes is the cursor's own state, which the replay rebuilds), the
// LocateStats total of the concurrent run must equal the sum over the
// cursors' replays: no count of any search lost or doubled.
func TestConcurrentLocate(t *testing.T) {
	const readers, calls = 4, 400
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	svc, err := New(dev, Options{BlockSize: 512, Degree: 4, CacheBlocks: 24, Now: lockedNow()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.CreateLog("/c", 0, ""); err != nil {
		t.Fatal(err)
	}
	ids := make([]uint16, readers+1) // the last is the writer's
	for i := range ids {
		if ids[i], err = svc.CreateLog(fmt.Sprintf("/c/s%d", i), 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	var tMin, tMax int64
	for i := 0; i < 1500; i++ {
		id := ids[readers] // mostly the writer's: the readers' sublogs are sparse
		if i%7 < readers && i%3 == 0 {
			id = ids[i%7]
		}
		ts, err := svc.Append(id, []byte(fmt.Sprintf("seed-%05d, padded so a block holds few", i)), AppendOptions{Timestamped: true})
		if err != nil {
			t.Fatal(err)
		}
		if tMin == 0 {
			tMin = ts
		}
		tMax = ts
	}
	if err := svc.Force(); err != nil {
		t.Fatal(err)
	}

	// walk makes reader r's calls on a fresh cursor and returns the answers.
	walk := func(r int) ([]string, error) {
		cur, err := svc.OpenCursor(fmt.Sprintf("/c/s%d", r))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(r) + 1))
		answers := make([]string, 0, calls)
		for len(answers) < calls {
			var e *Entry
			var err error
			switch k := rng.Intn(4); k {
			case 0:
				err = cur.SeekTime(tMin - 1000 + rng.Int63n(tMax-tMin+2000))
			case 1:
				e, err = cur.Prev()
			default:
				e, err = cur.Next()
			}
			switch {
			case err == io.EOF:
				answers = append(answers, "EOF")
			case err != nil:
				return nil, err
			case e == nil:
				answers = append(answers, "sought")
			default:
				answers = append(answers, string(e.Data))
			}
		}
		return answers, nil
	}
	together := func() [][]string {
		got := make([][]string, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var err error
				if got[r], err = walk(r); err != nil {
					t.Errorf("reader %d: %v", r, err)
				}
			}(r)
		}
		wg.Wait()
		return got
	}
	check := func(when string, got [][]string) {
		t.Helper()
		for r := range got {
			want, err := walk(r)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if i >= len(got[r]) || got[r][i] != want[i] {
					t.Fatalf("%s: reader %d call %d answered %q, alone it answers %q", when, r, i, got[r][i:min(i+1, len(got[r]))], want[i])
				}
			}
		}
	}

	stop, written := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { written <- n }()
		for ; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Append(ids[readers], []byte(fmt.Sprintf("live-%05d", n)), AppendOptions{Forced: true}); err != nil && !IsDegraded(err) {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	got := together()
	close(stop)
	if n := <-written; n == 0 {
		t.Error("the writer appended nothing beside the readers")
	}
	if t.Failed() {
		return
	}
	check("beside the writer", got)

	svc.ResetLocateStats()
	got = together()
	total := svc.LocateStats()
	check("quiescent", got)
	var sum entrymap.LocateStats
	for r := 0; r < readers; r++ {
		svc.ResetLocateStats()
		if _, err := walk(r); err != nil {
			t.Fatal(err)
		}
		st := svc.LocateStats()
		sum.EntriesExamined += st.EntriesExamined
		sum.PendingExamined += st.PendingExamined
		sum.RawScans += st.RawScans
		sum.TimestampReads += st.TimestampReads
	}
	if total != sum || total.EntriesExamined == 0 || total.TimestampReads == 0 {
		t.Fatalf("LocateStats of the concurrent run %+v, sum of the four runs alone %+v", total, sum)
	}
}
