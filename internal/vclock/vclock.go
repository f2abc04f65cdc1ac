// Package vclock provides the virtual clock and device cost model used by the
// deterministic experiments in this repository.
//
// The paper measured Clio on a Sun-3 with V-System IPC and analysed optical
// disk behaviour with a simple cost model (≈150 ms average seek, ≈0.6 ms to
// access and interpret a cached block, 0.5–1 ms local IPC, ≈400 µs to obtain
// a kernel timestamp, ≈70 µs of entrymap maintenance per logged entry). We do
// not have a 1987 optical drive, so the timed experiments run against a
// virtual clock: every component charges the model cost of each operation,
// and "measured time" is virtual elapsed time. The *shape* of every result —
// who wins, the slope against search distance, where crossovers fall — is a
// function of the operation counts, which the real implementation produces,
// multiplied by these constants.
//
// A Clock is optional everywhere: the nil *Clock charges nothing, so the
// production code paths run untimed at full speed.
package vclock

import (
	"sort"
	"sync"
	"time"
)

// CostModel holds the per-operation charges. The defaults are calibrated to
// the paper's Section 3 constants.
type CostModel struct {
	// DeviceSeek is the average seek+rotate cost of reaching a block on the
	// log device on a cache miss. The paper quotes ~150 ms for write-once
	// optical disk.
	DeviceSeek time.Duration
	// DeviceReadPerKB is the transfer cost per KiB read from the device.
	DeviceReadPerKB time.Duration
	// CachedBlock is the cost of accessing and interpreting one block held
	// in the server's main-memory block cache (~0.6 ms, Table 1 discussion).
	CachedBlock time.Duration
	// LocalIPC is the synchronous client/server IPC round trip on one
	// machine (0.5–1 ms in the paper; we charge the midpoint).
	LocalIPC time.Duration
	// RemoteIPC is the cross-machine IPC round trip (2.5–3 ms).
	RemoteIPC time.Duration
	// Timestamp is the cost of generating a kernel timestamp (~400 µs).
	Timestamp time.Duration
	// EntrymapMaint is the average per-entry cost of maintaining and
	// periodically logging entrymap information (~70 µs).
	EntrymapMaint time.Duration
	// CopyPerKB is the cost of moving client data from the client to the
	// server's block cache. Calibrated to §3.2's measured 0.9 ms delta
	// between a null and a 50-byte entry — on the Sun-3 this path was
	// dominated by per-byte IPC marshalling, hence the large constant.
	CopyPerKB time.Duration
	// WriteFixed is the fixed server-side cost of the log-write path beyond
	// IPC, timestamping, entrymap maintenance and data copying, calibrated
	// so a null synchronous log write costs §3.2's measured 2.0 ms.
	WriteFixed time.Duration
	// ServerFixed is the fixed server-side request handling cost beyond IPC,
	// calibrated so a distance-0 cached read costs Table 1's 1.46 ms:
	// 1.46 ms = LocalIPC + ServerFixed + 1×CachedBlock.
	ServerFixed time.Duration
	// ColdFetch is the fixed cost of staging a block from the cold
	// (archival) tier: the era-appropriate analogue is a robotic
	// autochanger swapping an optical platter into a drive, a few seconds
	// per fetch. Transfer is charged per KiB on top via DeviceReadPerKB.
	ColdFetch time.Duration
}

// DefaultModel returns the paper-calibrated cost model.
func DefaultModel() CostModel {
	return CostModel{
		DeviceSeek:      150 * time.Millisecond,
		DeviceReadPerKB: 500 * time.Microsecond,
		CachedBlock:     600 * time.Microsecond,
		LocalIPC:        700 * time.Microsecond,
		RemoteIPC:       2750 * time.Microsecond,
		Timestamp:       400 * time.Microsecond,
		EntrymapMaint:   70 * time.Microsecond,
		CopyPerKB:       18432 * time.Microsecond,
		WriteFixed:      830 * time.Microsecond,
		ServerFixed:     160 * time.Microsecond,
		ColdFetch:       2500 * time.Millisecond,
	}
}

// Clock is a virtual clock accumulating charged costs. The zero value is
// ready to use with the default model; a nil *Clock ignores all charges.
type Clock struct {
	mu      sync.Mutex
	model   CostModel
	modelOK bool
	elapsed time.Duration
	// charges tallies per-category totals for reporting.
	charges map[string]time.Duration
	counts  map[string]int64
}

// New returns a Clock using the given cost model.
func New(m CostModel) *Clock {
	return &Clock{model: m, modelOK: true,
		charges: make(map[string]time.Duration), counts: make(map[string]int64)}
}

// Model returns the clock's cost model (the default model for a zero clock).
func (c *Clock) Model() CostModel {
	if c == nil {
		return CostModel{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.modelOK {
		c.model = DefaultModel()
		c.modelOK = true
	}
	return c.model
}

// Charge advances the clock by d under the named category.
func (c *Clock) Charge(category string, d time.Duration) {
	if c == nil || d == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elapsed += d
	if c.charges == nil {
		c.charges = make(map[string]time.Duration)
		c.counts = make(map[string]int64)
	}
	c.charges[category] += d
	c.counts[category]++
}

// Elapsed returns total virtual time accumulated.
func (c *Clock) Elapsed() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// Reset zeroes the elapsed time and per-category tallies, keeping the model.
func (c *Clock) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elapsed = 0
	c.charges = make(map[string]time.Duration)
	c.counts = make(map[string]int64)
}

// CategoryTotal returns the accumulated charge and event count for a category.
func (c *Clock) CategoryTotal(category string) (time.Duration, int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.charges[category], c.counts[category]
}

// Categories returns the names of every category charged so far, sorted. A
// nil clock returns nil.
func (c *Clock) Categories() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]string, 0, len(c.charges))
	for name := range c.charges {
		out = append(out, name)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// Charge category names used across the repository.
const (
	CatSeek      = "device-seek"
	CatTransfer  = "device-transfer"
	CatCached    = "cached-block"
	CatIPC       = "ipc"
	CatTimestamp = "timestamp"
	CatEntrymap  = "entrymap-maint"
	CatCopy      = "copy"
	CatCold      = "cold-fetch"
	CatServer    = "server-fixed"
	CatWrite     = "write-fixed"
)

// ChargeWriteFixed charges the fixed log-write path cost.
func (c *Clock) ChargeWriteFixed() {
	if c == nil {
		return
	}
	c.Charge(CatWrite, c.Model().WriteFixed)
}

// ChargeDeviceRead charges a cold device read of n bytes (seek + transfer).
func (c *Clock) ChargeDeviceRead(n int) {
	if c == nil {
		return
	}
	m := c.Model()
	c.Charge(CatSeek, m.DeviceSeek)
	c.Charge(CatTransfer, m.DeviceReadPerKB*time.Duration(n)/1024)
}

// ChargeCachedBlock charges one cached-block access.
func (c *Clock) ChargeCachedBlock() {
	if c == nil {
		return
	}
	c.Charge(CatCached, c.Model().CachedBlock)
}

// ChargeIPC charges one IPC round trip; remote selects the cross-machine cost.
func (c *Clock) ChargeIPC(remote bool) {
	if c == nil {
		return
	}
	m := c.Model()
	if remote {
		c.Charge(CatIPC, m.RemoteIPC)
	} else {
		c.Charge(CatIPC, m.LocalIPC)
	}
}

// ChargeTimestamp charges one kernel timestamp generation.
func (c *Clock) ChargeTimestamp() {
	if c == nil {
		return
	}
	c.Charge(CatTimestamp, c.Model().Timestamp)
}

// ChargeEntrymapMaint charges the per-entry entrymap maintenance cost.
func (c *Clock) ChargeEntrymapMaint() {
	if c == nil {
		return
	}
	c.Charge(CatEntrymap, c.Model().EntrymapMaint)
}

// ChargeColdFetch charges staging n bytes from the cold (archival) tier:
// the autochanger fetch plus the per-KiB transfer.
func (c *Clock) ChargeColdFetch(n int) {
	if c == nil {
		return
	}
	m := c.Model()
	c.Charge(CatCold, m.ColdFetch)
	c.Charge(CatTransfer, m.DeviceReadPerKB*time.Duration(n)/1024)
}

// ChargeCopy charges copying n bytes of client data.
func (c *Clock) ChargeCopy(n int) {
	if c == nil {
		return
	}
	c.Charge(CatCopy, c.Model().CopyPerKB*time.Duration(n)/1024)
}

// ChargeServerFixed charges the fixed server request-handling cost.
func (c *Clock) ChargeServerFixed() {
	if c == nil {
		return
	}
	c.Charge(CatServer, c.Model().ServerFixed)
}
