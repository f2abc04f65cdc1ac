package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

func TestClassifyExplicit(t *testing.T) {
	tr := New(Transient, "flaky")
	if got := Classify(tr); got != Transient {
		t.Fatalf("Classify(New(Transient)) = %v", got)
	}
	if got := Classify(fmt.Errorf("wrapped: %w", tr)); got != Transient {
		t.Fatalf("Classify(wrapped transient) = %v", got)
	}
	pe := WithClass(errors.New("media"), Permanent)
	if got := Classify(pe); got != Permanent {
		t.Fatalf("Classify(WithClass Permanent) = %v", got)
	}
	torn := New(Torn, "tail lost")
	if got := Classify(torn); got != Torn {
		t.Fatalf("Classify(Torn) = %v", got)
	}
	if WithClass(nil, Transient) != nil {
		t.Fatal("WithClass(nil) != nil")
	}
}

func TestClassifyInferred(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Unknown},
		{io.EOF, Transient},
		{io.ErrUnexpectedEOF, Transient},
		{net.ErrClosed, Transient},
		{syscall.ECONNRESET, Transient},
		{syscall.ECONNREFUSED, Transient},
		{syscall.EPIPE, Transient},
		{&net.OpError{Op: "read", Err: syscall.ECONNRESET}, Transient},
		{errors.New("some other failure"), Permanent},
		{context.Canceled, Permanent},
		{context.DeadlineExceeded, Permanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Unknown: "unknown", Transient: "transient", Permanent: "permanent", Torn: "torn",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond,
		Multiplier: 2, Jitter: 0}
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: time.Second,
		Multiplier: 2, Jitter: 0.5, Seed: 42}
	for attempt := 1; attempt <= 6; attempt++ {
		a, b := p.Backoff(attempt), p.Backoff(attempt)
		if a != b {
			t.Fatalf("Backoff(%d) not deterministic: %v vs %v", attempt, a, b)
		}
		base := time.Millisecond * (1 << (attempt - 1))
		lo := time.Duration(float64(base) * 0.5)
		hi := time.Duration(float64(base) * 1.5)
		if a < lo || a > hi {
			t.Errorf("Backoff(%d) = %v outside [%v, %v]", attempt, a, lo, hi)
		}
	}
	q := p
	q.Seed = 43
	diff := false
	for attempt := 1; attempt <= 6; attempt++ {
		if p.Backoff(attempt) != q.Backoff(attempt) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical jitter schedules")
	}
}

func TestDoRetriesTransientOnly(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 2,
		MaxDelay: time.Second, Sleep: func(d time.Duration) { slept = append(slept, d) }}

	// Succeeds on third attempt.
	n := 0
	err := p.Do(func() error {
		n++
		if n < 3 {
			return New(Transient, "flap")
		}
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("Do: err=%v attempts=%d, want nil/3", err, n)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}

	// Permanent error returns immediately, no sleep.
	slept = nil
	n = 0
	perm := errors.New("permanent")
	err = p.Do(func() error { n++; return perm })
	if !errors.Is(err, perm) || n != 1 || len(slept) != 0 {
		t.Fatalf("permanent: err=%v attempts=%d sleeps=%d", err, n, len(slept))
	}

	// Exhaustion wraps the last transient error.
	n = 0
	tr := New(Transient, "always")
	err = p.Do(func() error { n++; return tr })
	if !errors.Is(err, tr) || n != 4 {
		t.Fatalf("exhaustion: err=%v attempts=%d, want wrapped/4", err, n)
	}
	if Classify(err) != Transient {
		t.Fatalf("exhausted error lost its class: %v", Classify(err))
	}
}

func TestDoCtxCancelBetweenAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond,
		Sleep: func(time.Duration) {}}
	n := 0
	err := p.DoCtx(ctx, func() error {
		n++
		if n == 2 {
			cancel()
		}
		return New(Transient, "flap")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 2 {
		t.Fatalf("attempts = %d, want 2", n)
	}
}

func TestRegistryFireBudget(t *testing.T) {
	r := NewRegistry(0)
	boom := New(Transient, "boom")
	r.Arm("p", Fault{Err: boom, Times: 2})
	for i := 0; i < 2; i++ {
		if err := r.Fire("p"); !errors.Is(err, boom) {
			t.Fatalf("fire %d: %v", i, err)
		}
	}
	if err := r.Fire("p"); err != nil {
		t.Fatalf("budget exhausted but still firing: %v", err)
	}
	if r.Hits("p") != 3 || r.Fired("p") != 2 {
		t.Fatalf("hits=%d fired=%d, want 3/2", r.Hits("p"), r.Fired("p"))
	}

	// Re-arming restarts the budget; Times 0 is no bound.
	r.Arm("p", Fault{Err: boom})
	for i := 0; i < 5; i++ {
		if err := r.Fire("p"); !errors.Is(err, boom) {
			t.Fatalf("unbounded fire %d: %v", i, err)
		}
	}
	// The zero Fault disarms and keeps the counts.
	r.Arm("p", Fault{})
	if err := r.Fire("p"); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	if r.Hits("p") != 9 || r.Fired("p") != 7 {
		t.Fatalf("hits=%d fired=%d, want 9/7", r.Hits("p"), r.Fired("p"))
	}
	if got := r.Points(); len(got) != 1 || got[0] != (PointStat{Name: "p", Hits: 9, Fired: 7}) {
		t.Fatalf("Points() = %+v", got)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	if err := r.Fire("anything"); err != nil {
		t.Fatalf("nil registry fired: %v", err)
	}
	if r.Hits("anything") != 0 || r.Fired("anything") != 0 || r.Points() != nil {
		t.Fatal("nil registry reported counts")
	}
}

func TestRegistryCrashPoint(t *testing.T) {
	r := NewRegistry(0)
	r.Arm("die", Fault{Crash: true, Times: 1})
	func() {
		defer func() {
			v := recover()
			c, ok := v.(Crash)
			if !ok || c.Point != "die" {
				t.Fatalf("recovered %v, want Crash{die}", v)
			}
		}()
		r.Fire("die")
		t.Fatal("crash point did not panic")
	}()
	if err := r.Fire("die"); err != nil {
		t.Fatalf("crash budget exhausted but errored: %v", err)
	}
	if c := (Crash{Point: "x"}); c.Error() == "" {
		t.Fatal("Crash.Error empty")
	}
}

// firings returns which of n hits of the named point fire under f.
func firings(seed int64, name string, f Fault, n int) []bool {
	r := NewRegistry(seed)
	r.Arm(name, f)
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Fire(name) != nil
	}
	return out
}

func TestRegistrySameSeedSameFirings(t *testing.T) {
	f := Fault{Err: New(Transient, "flap"), Prob: 0.3}
	const n = 2000
	a := firings(99, "dev.write", f, n)
	if b := firings(99, "dev.write", f, n); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("the same seed gave two firing sequences")
	}
	if b := firings(100, "dev.write", f, n); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("another seed gave the same firing sequence")
	}
	if b := firings(99, "dev.read", f, n); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("two points of one registry fire in lockstep")
	}
	fired := 0
	for _, ok := range a {
		if ok {
			fired++
		}
	}
	if share := float64(fired) / n; share < 0.25 || share > 0.35 {
		t.Fatalf("Prob 0.3 fired %.3f of the hits", share)
	}
}

func TestRegistryMaxRunLetsOneHitThrough(t *testing.T) {
	got := firings(1, "p", Fault{Err: New(Transient, "flap"), MaxRun: 3}, 8)
	want := []bool{true, true, true, false, true, true, true, false}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("MaxRun 3 on an always-firing point: %v, want %v", got, want)
	}
	// Under a draw, no run is ever longer than MaxRun.
	run := 0
	for i, fired := range firings(1, "p", Fault{Err: New(Transient, "flap"), Prob: 0.9, MaxRun: 2}, 500) {
		if !fired {
			run = 0
		} else if run++; run > 2 {
			t.Fatalf("hit %d is the %dth consecutive firing under MaxRun 2", i, run)
		}
	}
}

func TestRegistryDelayBeforeReturning(t *testing.T) {
	r := NewRegistry(0)
	const d = 5 * time.Millisecond
	r.Arm("slow", Fault{Delay: d})
	start := time.Now()
	if err := r.Fire("slow"); err != nil {
		t.Fatalf("a delay-only point returned %v", err)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("Fire returned after %v, want at least %v", el, d)
	}
	boom := New(Transient, "late")
	r.Arm("slow", Fault{Err: boom, Delay: d, Times: 1})
	start = time.Now()
	if err := r.Fire("slow"); !errors.Is(err, boom) || time.Since(start) < d {
		t.Fatalf("delayed error: %v after %v", err, time.Since(start))
	}
	if r.Fired("slow") != 2 {
		t.Fatalf("fired = %d, want 2", r.Fired("slow"))
	}
}
