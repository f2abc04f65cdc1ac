package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"clio/internal/faults"
	"clio/internal/obs"
	"clio/internal/wodev"
)

// TestScrapeWhileAppending races a metrics scraper against concurrent
// appenders, readers and counter resets. Run under -race it proves every
// snapshot path (Stats, CacheStats, DeviceStats, LocateStats, Status, the
// registry callbacks) takes its locks; the value assertions prove a scrape
// never tears a struct badly enough to lose completed operations.
func TestScrapeWhileAppending(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 1024, Capacity: 1 << 12})
	svc, err := New(dev, Options{
		BlockSize: 1024, Degree: 4, CacheBlocks: 64,
		Now:    lockedNow(),
		Faults: faults.NewRegistry(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id := mustCreate(t, svc, "/scrape")

	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)

	const writers, appendsEach = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < appendsEach; i++ {
				opts := AppendOptions{Forced: i%8 == 0}
				if _, err := svc.Append(id, []byte(fmt.Sprintf("w%d-%d", w, i)), opts); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() { // a reader exercising cache + locator while scraping
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := svc.OpenCursorID(id)
			if err != nil {
				continue
			}
			for j := 0; j < 10; j++ {
				if _, err := c.Next(); err != nil {
					break
				}
			}

		}
	}()

	// The scraper: Prometheus text plus JSON snapshot plus Status, as the
	// admin endpoint would.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := reg.WriteProm(&b); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			reg.Snapshot()
			svc.Status()
		}
	}()

	wg.Wait()
	close(stop)
	<-readerDone
	<-scrapeDone

	// After quiescence the registry and the accessors must agree exactly.
	st := svc.Stats()
	if st.EntriesAppended != writers*appendsEach {
		t.Errorf("EntriesAppended = %d, want %d", st.EntriesAppended, writers*appendsEach)
	}
	var fromProm strings.Builder
	if err := reg.WriteProm(&fromProm); err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("clio_core_entries_appended_total %d", writers*appendsEach)
	if !strings.Contains(fromProm.String(), wantLine+"\n") {
		t.Errorf("scrape missing %q", wantLine)
	}
	if n := histCount(reg, "clio_core_append_seconds"); n != int64(writers*appendsEach) {
		t.Errorf("append histogram count = %d, want %d", n, writers*appendsEach)
	}
}

// histCount is the number of observations the histogram name holds in reg,
// over all its label sets.
func histCount(reg *obs.Registry, name string) int64 {
	var n int64
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			n += m.Count
		}
	}
	return n
}

// TestScrapeIsOneSnapshot scrapes two services, registered in one registry
// under `shard` labels as a sharded store registers them, while two
// goroutines per service append fixed-size unforced entries. Every append
// moves entries, client bytes and header bytes together under the writer
// lock, so a scrape that copies each service's Stats once must report them
// in exact proportion, per shard, every time; a scrape that reads each
// series through its own Stats() call does not.
func TestScrapeIsOneSnapshot(t *testing.T) {
	const size, shards = 8, 2
	reg := obs.NewRegistry()
	var svcs [shards]*Service
	var ids [shards]uint16
	for i := range svcs {
		svcs[i], _ = newTestService(t, Options{BlockSize: 1024, Now: lockedNow()})
		defer svcs[i].Close()
		svcs[i].RegisterMetrics(reg, obs.L("shard", fmt.Sprint(i)))
		ids[i] = mustCreate(t, svcs[i], "/snap")
	}
	payload := make([]byte, size)
	mustAppend(t, svcs[0], ids[0], string(payload), AppendOptions{})
	header := svcs[0].Stats().HeaderBytes // of one entry; the same for all

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range svcs {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(svc *Service, id uint16) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := svc.Append(id, payload, AppendOptions{}); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}(svcs[i], ids[i])
		}
	}
	for scrape := 0; scrape < 25; scrape++ {
		var entries, client, hdr [shards]int64
		for _, m := range reg.Snapshot() {
			var sh int
			fmt.Sscan(m.Labels["shard"], &sh)
			switch m.Name {
			case "clio_core_entries_appended_total":
				entries[sh] = m.Value
			case "clio_core_client_bytes_total":
				client[sh] = m.Value
			case "clio_core_header_bytes_total":
				hdr[sh] = m.Value
			}
		}
		for sh := range svcs {
			if client[sh] != size*entries[sh] || hdr[sh] != header*entries[sh] {
				t.Errorf("scrape %d shard %d is torn: %d entries, %d client bytes (want %d), %d header bytes (want %d)",
					scrape, sh, entries[sh], client[sh], size*entries[sh], hdr[sh], header*entries[sh])
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestResetCountersWhileScraping races ResetCounters against the registry
// callbacks — the reset path takes the same locks the snapshots take.
func TestResetCountersWhileScraping(t *testing.T) {
	svc, _ := newTestService(t, Options{Now: lockedNow()})
	defer svc.Close()
	id := mustCreate(t, svc, "/reset")
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if _, err := svc.Append(id, []byte("x"), AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			svc.ResetCounters()
			svc.ResetLocateStats()
		}
	}
	close(stop)
	<-done
}

// TestStatusSnapshot checks the /statusz source against ground truth.
func TestStatusSnapshot(t *testing.T) {
	svc, _ := newTestService(t, Options{BlockSize: 256, Degree: 4})
	defer svc.Close()
	id := mustCreate(t, svc, "/status")
	for i := 0; i < 20; i++ {
		mustAppend(t, svc, id, fmt.Sprintf("entry-%d", i), AppendOptions{Forced: i == 10})
	}
	st := svc.Status()
	if st.BlockSize != 256 || st.Degree != 4 {
		t.Errorf("config = %d/%d", st.BlockSize, st.Degree)
	}
	if st.Stats.EntriesAppended != 20 {
		t.Errorf("EntriesAppended = %d", st.Stats.EntriesAppended)
	}
	if len(st.Volumes) != 1 || !st.Volumes[0].Active {
		t.Errorf("volumes = %+v", st.Volumes)
	}
	if st.End != svc.End() || st.SealedEnd > st.End {
		t.Errorf("End = %d, SealedEnd = %d", st.End, st.SealedEnd)
	}
	if st.NVRAM {
		t.Error("NVRAM reported without one configured")
	}
}

// TestAppendTraceSpans drives a forced append with a trace attached and
// checks the captured spans cover the group commit and the device write —
// the layers ISSUE's acceptance demands visible for a slow forced append.
func TestAppendTraceSpans(t *testing.T) {
	svc, _ := newTestService(t, Options{BlockSize: 256, Degree: 4}) // no NVRAM: forces seal to the device
	defer svc.Close()
	id := mustCreate(t, svc, "/traced")

	tc := obs.NewTracer(8, 0)
	tr := tc.Start(77, "append")
	if _, err := svc.Append(id, []byte("hello"), AppendOptions{Forced: true, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tc.Finish(tr)

	names := map[string]bool{}
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
		if sp.Duration < 0 {
			t.Errorf("span %s has negative duration %v", sp.Name, sp.Duration)
		}
	}
	for _, want := range []string{"core.group_commit_wait", "core.group_commit", "wodev.write"} {
		if !names[want] {
			t.Errorf("trace missing span %q; have %v", want, tr.Spans())
		}
	}
	rec := tc.Slow()
	if len(rec) != 1 || rec[0].ID != 77 || len(rec[0].Spans) == 0 {
		t.Errorf("slow ring = %+v", rec)
	}
}

// TestInstrumentationPreservesOpCounts runs the same workload on an
// instrumented and an un-instrumented service and requires identical
// operation counters — the acceptance bar for cmd/experiments, which
// prices the paper's cost units from these Stats.
func TestInstrumentationPreservesOpCounts(t *testing.T) {
	run := func(register bool) (Stats, wodev.Stats) {
		dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
		tcl := &testClock{}
		svc, err := New(dev, Options{BlockSize: 256, Degree: 4, Now: tcl.Now})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if register {
			svc.RegisterMetrics(obs.NewRegistry())
		}
		id := mustCreate(t, svc, "/same")
		for i := 0; i < 100; i++ {
			mustAppend(t, svc, id, fmt.Sprintf("payload-%04d", i), AppendOptions{Forced: i%10 == 0})
		}
		c, err := svc.OpenCursorID(id)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := c.Next(); err != nil {
				break
			}
		}
		return svc.Stats(), svc.DeviceStats()
	}
	plainS, plainD := run(false)
	instS, instD := run(true)
	if plainS.Timestamps != 10 || plainS.CursorSteps != 101 || plainS.BlocksInterpreted == 0 {
		t.Errorf("cost units: %d timestamps (want 10, one per forced append), %d cursor steps (want 101), %d blocks interpreted",
			plainS.Timestamps, plainS.CursorSteps, plainS.BlocksInterpreted)
	}
	if plainS != instS {
		t.Errorf("service stats diverge:\nplain = %+v\ninst  = %+v", plainS, instS)
	}
	if plainD != instD {
		t.Errorf("device stats diverge:\nplain = %+v\ninst  = %+v", plainD, instD)
	}
}
