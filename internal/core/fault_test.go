package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"clio/internal/faults"
	"clio/internal/wodev"
)

func quickRetry() *faults.RetryPolicy {
	return &faults.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond,
		MaxDelay: time.Microsecond, Sleep: func(time.Duration) {}}
}

func TestDegradedAppendRelocates(t *testing.T) {
	tc := &testClock{}
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, Retry: quickRetry()}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/deg")
	mustAppend(t, s, id, "clean", AppendOptions{Forced: true})

	// Damage the next unwritten device block: the forced append must
	// complete by relocating past it and report the degradation.
	bad := dev.Written()
	if err := dev.Damage(bad, nil); err != nil {
		t.Fatal(err)
	}
	ts, err := s.Append(id, []byte("degraded"), AppendOptions{Forced: true})
	if err == nil {
		t.Fatal("append over damaged block returned nil, want *DegradedError")
	}
	var d *DegradedError
	if !errors.As(err, &d) {
		t.Fatalf("append over damaged block: %v, want *DegradedError", err)
	}
	if !IsDegraded(err) {
		t.Fatal("IsDegraded(DegradedError) = false")
	}
	if d.Timestamp != ts || ts == 0 {
		t.Fatalf("DegradedError.Timestamp = %d, Append ts = %d", d.Timestamp, ts)
	}
	if len(d.Relocated) != 1 {
		t.Fatalf("Relocated = %v, want one block", d.Relocated)
	}
	if !errors.Is(d.Cause, wodev.ErrCorrupt) {
		t.Fatalf("Cause = %v, want ErrCorrupt", d.Cause)
	}
	// The write completed: both entries are readable.
	got := datas(readAll(t, s, "/deg"))
	if fmt.Sprint(got) != fmt.Sprint([]string{"clean", "degraded"}) {
		t.Fatalf("entries after degraded append: %v", got)
	}
	if s.Stats().DeadBlocks != 1 {
		t.Fatalf("DeadBlocks = %d, want 1", s.Stats().DeadBlocks)
	}
}

func TestTransientAppendFaultsMaskedByRetry(t *testing.T) {
	tc := &testClock{}
	reg := faults.NewRegistry(7)
	dev := wodev.Inject(wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12}), reg, "dev")
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, Retry: quickRetry()}
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Armed after New: formatting the volume header is not retried. A run
	// bound of 2 keeps every write inside the retry budget of 4.
	reg.Arm("dev.write", faults.Fault{Err: wodev.ErrTransient, Prob: 0.4, MaxRun: 2})
	id := mustCreate(t, s, "/flap")
	var want []string
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("e%02d", i)
		if _, err := s.Append(id, []byte(p), AppendOptions{Forced: true}); err != nil {
			t.Fatalf("append %d not masked: %v", i, err)
		}
		want = append(want, p)
	}
	if got := datas(readAll(t, s, "/flap")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("entries mismatch after flaky appends")
	}
	if reg.Fired("dev.write") == 0 {
		t.Fatal("dev.write injected nothing; test is vacuous")
	}
	if s.Stats().DeadBlocks != 0 {
		t.Fatalf("masked transients must not kill blocks: DeadBlocks = %d", s.Stats().DeadBlocks)
	}
}

func TestTransientReadFaultsMaskedByRetry(t *testing.T) {
	tc := &testClock{}
	reg := faults.NewRegistry(0)
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, Retry: quickRetry(),
		Faults: reg, CacheBlocks: -1}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/r")
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("e%02d", i)
		mustAppend(t, s, id, p, AppendOptions{Forced: true})
		want = append(want, p)
	}
	s.FlushCache()
	// Every other read attempt fails: reads still work via retry.
	reg.Arm(FaultReadBlock, faults.Fault{Err: wodev.ErrTransient, Times: 2})
	if got := datas(readAll(t, s, "/r")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("entries mismatch under read faults")
	}
	if reg.Fired(FaultReadBlock) != 2 {
		t.Fatalf("read fault point fired %d times, want 2", reg.Fired(FaultReadBlock))
	}
}

func TestTransientExhaustedSealRelocates(t *testing.T) {
	// A block whose writes keep failing past the retry budget is treated
	// like damaged media: invalidated, skipped, append completes degraded.
	tc := &testClock{}
	reg := faults.NewRegistry(0)
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, Retry: quickRetry(), Faults: reg}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/ex")
	mustAppend(t, s, id, "clean", AppendOptions{Forced: true})

	// Exactly one full retry cycle (4 attempts) fails, then the point is
	// exhausted and the relocated write succeeds.
	reg.Arm(FaultSealWrite, faults.Fault{Err: wodev.ErrTransient, Times: 4})
	_, err = s.Append(id, []byte("slid"), AppendOptions{Forced: true})
	var d *DegradedError
	if !errors.As(err, &d) {
		t.Fatalf("append = %v, want *DegradedError", err)
	}
	if !errors.Is(d.Cause, wodev.ErrTransient) {
		t.Fatalf("Cause = %v, want ErrTransient", d.Cause)
	}
	got := datas(readAll(t, s, "/ex"))
	if fmt.Sprint(got) != fmt.Sprint([]string{"clean", "slid"}) {
		t.Fatalf("entries after exhausted seal: %v", got)
	}
	if s.Stats().DeadBlocks != 1 {
		t.Fatalf("DeadBlocks = %d, want 1", s.Stats().DeadBlocks)
	}
}

func TestNVRAMStoreRetried(t *testing.T) {
	tc := &testClock{}
	reg := faults.NewRegistry(0)
	nv := NewMemNVRAM()
	opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, Retry: quickRetry(),
		Faults: reg, NVRAM: nv}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/nv")
	reg.Arm(FaultNVRAMStore, faults.Fault{Err: faults.New(faults.Transient, "nvram glitch"), Times: 2})
	if _, err := s.Append(id, []byte("durable"), AppendOptions{Forced: true}); err != nil {
		t.Fatalf("forced append with flaky NVRAM: %v", err)
	}
	if reg.Fired(FaultNVRAMStore) != 2 {
		t.Fatalf("nvram fault fired %d, want 2", reg.Fired(FaultNVRAMStore))
	}
	// The staged image made it to NVRAM despite the glitches.
	if _, img, _ := nv.Load(); img == nil {
		t.Fatal("NVRAM empty after retried store")
	}
}

func TestChainedEntryReadableAcrossRelocatedBlock(t *testing.T) {
	// An entry fragmented across blocks whose continuation target turns out
	// damaged: the seal slides the staged fragment to the next block
	// (§2.3.2), so readers must follow the chain *past* the invalidated
	// block rather than treating it as torn — both live and after recovery.
	tc := &testClock{}
	opt := Options{BlockSize: 512, Degree: 8, NVRAM: NewMemNVRAM(),
		Now: tc.Now, Retry: quickRetry()}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 64})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/chain")
	var want []string
	put := func(n int, forced bool) {
		t.Helper()
		p := fmt.Sprintf("e%06d-%s", n, string(make([]byte, 180)))
		if _, err := s.Append(id, []byte(p), AppendOptions{Forced: forced}); err != nil && !IsDegraded(err) {
			t.Fatalf("append %d: %v", n, err)
		}
		want = append(want, p)
	}
	// ~190-byte entries in 512-byte blocks: most block boundaries split an
	// entry into a continuation chain.
	for i := 0; i < 10; i++ {
		put(i, i%3 == 0)
	}
	if err := dev.Damage(dev.Written(), nil); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		put(i, true)
	}
	if got := datas(readAll(t, s, "/chain")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("live read across relocated block: got %d of %d entries", len(got), len(want))
	}
	// The same holds after a crash and recovery from the media.
	s.Crash()
	s2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := datas(readAll(t, s2, "/chain")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered read across relocated block: got %d of %d entries", len(got), len(want))
	}
	if s2.Stats().DeadBlocks == 0 && s.Stats().DeadBlocks == 0 {
		t.Fatal("no block was ever relocated; test is vacuous")
	}
}

// TestIsDegradedNilAllocatesNothing: the server asks IsDegraded of every
// append's result, nearly always nil; that answer must not allocate the
// errors.As probe. A notice, bare or wrapped, is still recognised.
func TestIsDegradedNilAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		if IsDegraded(nil) {
			t.Fatal("nil reported degraded")
		}
	}); allocs != 0 {
		t.Errorf("IsDegraded(nil) allocated %.1f times, want 0", allocs)
	}
	d := &DegradedError{Relocated: []int{3}, Cause: errors.New("bad block")}
	if !IsDegraded(d) || !IsDegraded(fmt.Errorf("append: %w", d)) {
		t.Error("a degraded notice was not recognised")
	}
	if IsDegraded(errors.New("plain failure")) {
		t.Error("a plain error reported degraded")
	}
}
