package wodev

import (
	"errors"
	"testing"
	"time"

	"clio/internal/faults"
)

func injectPair(t *testing.T) (Device, *MemDevice, *faults.Registry) {
	t.Helper()
	mem := NewMem(MemOptions{BlockSize: 64, Capacity: 128})
	reg := faults.NewRegistry(1)
	return Inject(mem, reg, "dev"), mem, reg
}

// TestInjectErrorMeansTheOperationNeverRan: an injected error stands in for
// the call, so the device underneath is untouched and a retry is safe.
func TestInjectErrorMeansTheOperationNeverRan(t *testing.T) {
	dev, mem, reg := injectPair(t)
	data := fill(64, 1)
	reg.Arm("dev.write", faults.Fault{Err: ErrTransient, Times: 2})
	if _, err := dev.AppendBlock(data); !errors.Is(err, ErrTransient) {
		t.Fatalf("AppendBlock = %v, want ErrTransient", err)
	}
	if err := dev.WriteAt(0, data); !errors.Is(err, ErrTransient) {
		t.Fatalf("WriteAt = %v, want ErrTransient", err)
	}
	if mem.Written() != 0 || dev.Written() != 0 {
		t.Fatalf("failed writes reached the device: written=%d", mem.Written())
	}
	if faults.Classify(ErrTransient) != faults.Transient {
		t.Fatalf("ErrTransient classifies as %v", faults.Classify(ErrTransient))
	}
	if idx, err := dev.AppendBlock(data); err != nil || idx != 0 {
		t.Fatalf("append after the budget: idx=%d err=%v", idx, err)
	}

	reg.Arm("dev.invalidate", faults.Fault{Err: ErrTransient, Times: 1})
	if err := dev.Invalidate(0); !errors.Is(err, ErrTransient) {
		t.Fatalf("Invalidate = %v, want ErrTransient", err)
	}
	reg.Arm("dev.read", faults.Fault{Err: ErrTransient, Times: 1})
	dst := make([]byte, 64)
	if err := dev.ReadBlock(0, dst); !errors.Is(err, ErrTransient) {
		t.Fatalf("ReadBlock = %v, want ErrTransient", err)
	}
	if err := dev.ReadBlock(0, dst); err != nil || dst[0] != 1 {
		t.Fatalf("the block after a failed invalidate and read: %v, %x", err, dst[0])
	}
	for point, fired := range map[string]int64{"dev.write": 2, "dev.invalidate": 1, "dev.read": 1} {
		if reg.Fired(point) != fired {
			t.Errorf("%s fired %d times, want %d", point, reg.Fired(point), fired)
		}
	}
	if reg.Hits("dev.write") != 3 || reg.Hits("dev.read") != 2 {
		t.Errorf("hits: write %d read %d, want 3 and 2", reg.Hits("dev.write"), reg.Hits("dev.read"))
	}
}

// TestInjectRetryThrough: a 50 % write fault with a run bound of 3 is always
// masked by a 4-attempt retry policy, and no append lands twice.
func TestInjectRetryThrough(t *testing.T) {
	dev, mem, reg := injectPair(t)
	reg.Arm("dev.write", faults.Fault{Err: ErrTransient, Prob: 0.5, MaxRun: 3})
	p := faults.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond,
		Sleep: func(time.Duration) {}}
	data := fill(64, 2)
	for i := 0; i < 50; i++ {
		var idx int
		err := p.Do(func() error {
			var e error
			idx, e = dev.AppendBlock(data)
			return e
		})
		if err != nil {
			t.Fatalf("append %d not masked: %v", i, err)
		}
		if idx != i {
			t.Fatalf("append %d landed at %d", i, idx)
		}
	}
	if mem.Written() != 50 || reg.Fired("dev.write") == 0 {
		t.Fatalf("written = %d (want 50), fired = %d", mem.Written(), reg.Fired("dev.write"))
	}
}

// TestInjectDelaysBeforeTheOperation: an armed delay holds the call, and
// the operation then runs.
func TestInjectDelaysBeforeTheOperation(t *testing.T) {
	dev, mem, reg := injectPair(t)
	const d = 5 * time.Millisecond
	reg.Arm("dev.write", faults.Fault{Delay: d})
	start := time.Now()
	if _, err := dev.AppendBlock(fill(64, 3)); err != nil {
		t.Fatalf("delayed append failed: %v", err)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("append returned after %v, want at least %v", el, d)
	}
	if mem.Written() != 1 || reg.Fired("dev.write") != 1 {
		t.Fatalf("written %d, fired %d; want 1 and 1", mem.Written(), reg.Fired("dev.write"))
	}
}
