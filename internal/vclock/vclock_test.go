package vclock

import (
	"testing"
	"time"

	"clio/internal/core"
)

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

// TestNilClockIsNoOp: a run that counted nothing costs nothing, local or
// remote, and every category of its split is zero.
func TestNilClockIsNoOp(t *testing.T) {
	for _, remote := range []bool{false, true} {
		total, split := Price(DefaultModel(), 1024, remote, core.Stats{})
		if total != 0 {
			t.Errorf("remote=%v: empty counts priced %v", remote, total)
		}
		for cat, d := range split {
			if d != 0 {
				t.Errorf("remote=%v: empty counts charged %s %v", remote, cat, d)
			}
		}
	}
}

// TestChargeHelpers prices single events in their own categories: a device
// read of a 1 KiB block costs a seek plus its transfer, and each IPC round
// trip costs the local or the remote IPC time.
func TestChargeHelpers(t *testing.T) {
	m := DefaultModel()
	total, split := Price(m, 1024, false, core.Stats{DeviceReads: 1})
	if want := m.DeviceSeek + m.DeviceReadPerKB; total != want {
		t.Errorf("device read priced %v, want %v", total, want)
	}
	if split[CatSeek] != m.DeviceSeek || split[CatTransfer] != m.DeviceReadPerKB {
		t.Errorf("device read split seek %v transfer %v", split[CatSeek], split[CatTransfer])
	}
	step := core.Stats{CursorSteps: 1}
	if _, split := Price(m, 1024, true, step); split[CatIPC] != m.RemoteIPC {
		t.Errorf("remote IPC priced %v, want %v", split[CatIPC], m.RemoteIPC)
	}
	if _, split := Price(m, 1024, false, step); split[CatIPC] != m.LocalIPC {
		t.Errorf("local IPC priced %v, want %v", split[CatIPC], m.LocalIPC)
	}
}

// TestPriceHandBuiltCounts prices count sets whose cost the paper states:
// a null and a 50-byte synchronous write (§3.2), local and remote, Table
// 1's distance-0 read, and a cache miss that reads a 1 KiB block from the
// device.
func TestPriceHandBuiltCounts(t *testing.T) {
	m := DefaultModel()
	for _, c := range []struct {
		name   string
		remote bool
		st     core.Stats
		want   time.Duration
	}{
		{"null write", false, core.Stats{EntriesAppended: 1, Timestamps: 1}, 2 * time.Millisecond},
		{"50-byte write", false, core.Stats{EntriesAppended: 1, Timestamps: 1, ClientBytes: 50}, 2900 * time.Microsecond},
		{"null write, remote", true, core.Stats{EntriesAppended: 1, Timestamps: 1}, 4050 * time.Microsecond},
		{"distance-0 read", false, core.Stats{CursorSteps: 1, BlocksInterpreted: 1}, 1460 * time.Microsecond},
		{"cold read", false, core.Stats{CursorSteps: 1, BlocksInterpreted: 1, DeviceReads: 1},
			1460*time.Microsecond + m.DeviceSeek + m.DeviceReadPerKB},
		{"cold-tier fetch", false, core.Stats{ColdFetches: 1}, m.ColdFetch + m.DeviceReadPerKB},
	} {
		total, split := Price(m, 1024, c.remote, c.st)
		if total != c.want {
			t.Errorf("%s: priced %v, want %v", c.name, total, c.want)
		}
		var sum time.Duration
		for _, d := range split {
			sum += d
		}
		if sum != total {
			t.Errorf("%s: split sums to %v, total %v", c.name, sum, total)
		}
	}
}

// TestPriceIsLinear: pricing the totals of many operations equals summing
// the price of each, category by category — what lets an experiment price
// a whole run's counts at once.
func TestPriceIsLinear(t *testing.T) {
	m := DefaultModel()
	one := core.Stats{EntriesAppended: 1, Timestamps: 1, ClientBytes: 37,
		CursorSteps: 3, BlocksInterpreted: 5, DeviceReads: 2, ColdFetches: 1}
	many := core.Stats{EntriesAppended: 1000, Timestamps: 1000, ClientBytes: 37000,
		CursorSteps: 3000, BlocksInterpreted: 5000, DeviceReads: 2000, ColdFetches: 1000}
	t1, s1 := Price(m, 256, false, one)
	tn, sn := Price(m, 256, false, many)
	if tn != 1000*t1 {
		t.Errorf("1000 operations priced %v, one %v", tn, t1)
	}
	for cat, d := range s1 {
		if sn[cat] != 1000*d {
			t.Errorf("%s: 1000 operations priced %v, one %v", cat, sn[cat], d)
		}
	}
}
