package vclock

import (
	"sync"
	"testing"
	"time"
)

func TestNilClockIsNoOp(t *testing.T) {
	var c *Clock
	c.Charge("x", time.Second)
	c.ChargeDeviceRead(1024)
	c.ChargeCachedBlock()
	c.ChargeIPC(false)
	c.ChargeTimestamp()
	c.ChargeEntrymapMaint()
	c.ChargeCopy(100)
	c.ChargeServerFixed()
	c.ChargeWriteFixed()
	c.Reset()
	if c.Elapsed() != 0 {
		t.Error("nil clock accumulated time")
	}
	if d, n := c.CategoryTotal("x"); d != 0 || n != 0 {
		t.Error("nil clock has categories")
	}
}

func TestChargeAccumulates(t *testing.T) {
	c := New(DefaultModel())
	c.Charge("a", time.Millisecond)
	c.Charge("a", time.Millisecond)
	c.Charge("b", 2*time.Millisecond)
	if c.Elapsed() != 4*time.Millisecond {
		t.Errorf("Elapsed = %v", c.Elapsed())
	}
	d, n := c.CategoryTotal("a")
	if d != 2*time.Millisecond || n != 2 {
		t.Errorf("a: %v, %d", d, n)
	}
	c.Reset()
	if c.Elapsed() != 0 {
		t.Error("Reset did not zero")
	}
}

func TestDefaultModelMatchesPaperConstants(t *testing.T) {
	m := DefaultModel()
	if m.DeviceSeek != 150*time.Millisecond {
		t.Errorf("seek = %v, paper says ~150 ms", m.DeviceSeek)
	}
	if m.CachedBlock != 600*time.Microsecond {
		t.Errorf("cached block = %v, paper says ~0.6 ms", m.CachedBlock)
	}
	if m.LocalIPC < 500*time.Microsecond || m.LocalIPC > time.Millisecond {
		t.Errorf("local IPC = %v, paper says 0.5-1 ms", m.LocalIPC)
	}
	if m.RemoteIPC < 2500*time.Microsecond || m.RemoteIPC > 3*time.Millisecond {
		t.Errorf("remote IPC = %v, paper says 2.5-3 ms", m.RemoteIPC)
	}
	if m.Timestamp != 400*time.Microsecond {
		t.Errorf("timestamp = %v, paper says ~400 us", m.Timestamp)
	}
	if m.EntrymapMaint != 70*time.Microsecond {
		t.Errorf("entrymap maint = %v, paper says ~70 us", m.EntrymapMaint)
	}
	// The write-path calibration: a null synchronous write should cost the
	// paper's 2.0 ms (IPC + timestamp + entrymap maint + fixed).
	null := m.LocalIPC + m.Timestamp + m.EntrymapMaint + m.WriteFixed
	if null != 2*time.Millisecond {
		t.Errorf("null write model = %v, want 2 ms", null)
	}
	// And a 50-byte write the paper's 2.9 ms.
	fifty := null + m.CopyPerKB*50/1024
	if fifty < 2850*time.Microsecond || fifty > 2950*time.Microsecond {
		t.Errorf("50-byte write model = %v, want ~2.9 ms", fifty)
	}
	// Table 1's distance-0 read: IPC + fixed + one cached block = 1.46 ms.
	read0 := m.LocalIPC + m.ServerFixed + m.CachedBlock
	if read0 != 1460*time.Microsecond {
		t.Errorf("distance-0 read model = %v, want 1.46 ms", read0)
	}
}

func TestChargeHelpers(t *testing.T) {
	c := New(DefaultModel())
	c.ChargeDeviceRead(1024)
	want := c.Model().DeviceSeek + c.Model().DeviceReadPerKB
	if c.Elapsed() != want {
		t.Errorf("device read charged %v, want %v", c.Elapsed(), want)
	}
	c.Reset()
	c.ChargeIPC(true)
	if c.Elapsed() != c.Model().RemoteIPC {
		t.Errorf("remote IPC charged %v", c.Elapsed())
	}
	c.Reset()
	c.ChargeIPC(false)
	if c.Elapsed() != c.Model().LocalIPC {
		t.Errorf("local IPC charged %v", c.Elapsed())
	}
}

func TestZeroValueClock(t *testing.T) {
	var c Clock
	c.ChargeCachedBlock()
	if c.Elapsed() != DefaultModel().CachedBlock {
		t.Errorf("zero-value clock: %v", c.Elapsed())
	}
}

func TestConcurrentCharges(t *testing.T) {
	c := New(DefaultModel())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Charge("x", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Elapsed() != 8*1000*time.Microsecond {
		t.Errorf("concurrent charges lost: %v", c.Elapsed())
	}
}
