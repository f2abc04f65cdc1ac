// Package vclock is the price list of the deterministic experiments in this
// repository: the paper's cost model, and Price, which turns a run's
// operation counts into virtual time.
//
// The paper measured Clio on a Sun-3 with V-System IPC and analysed optical
// disk behaviour with a simple cost model (≈150 ms average seek, ≈0.6 ms to
// access and interpret a cached block, 0.5–1 ms local IPC, ≈400 µs to obtain
// a kernel timestamp, ≈70 µs of entrymap maintenance per logged entry). We do
// not have a 1987 optical drive, so the timed experiments report virtual
// time: the service counts each cost unit in core.Stats, and an experiment
// prices the counts its run added. The *shape* of every result — who wins,
// the slope against search distance, where crossovers fall — is a function
// of the operation counts, which the real implementation produces,
// multiplied by these constants.
package vclock

import (
	"time"

	"clio/internal/core"
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

// Cost categories: the keys of Price's split.
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

// Price returns the virtual time of the operations counted in st under m,
// in total and split by category. st holds one run's counts: the Stats of
// a service whose counters were reset before the run. blockSize is the
// service's block size, which every device read and cold fetch transfers;
// remote prices each IPC round trip — one per client append and one per
// cursor step — at the cross-machine cost.
//
// Each category is linear in its count, so pricing a run's totals equals
// summing per-operation charges; the copy term does so exactly when
// CopyPerKB is a whole number of nanoseconds per byte, as in DefaultModel.
func Price(m CostModel, blockSize int, remote bool, st core.Stats) (time.Duration, map[string]time.Duration) {
	ipc := m.LocalIPC
	if remote {
		ipc = m.RemoteIPC
	}
	n := func(c int64) time.Duration { return time.Duration(c) }
	split := map[string]time.Duration{
		CatIPC:       ipc * n(st.EntriesAppended+st.CursorSteps),
		CatWrite:     m.WriteFixed * n(st.EntriesAppended),
		CatEntrymap:  m.EntrymapMaint * n(st.EntriesAppended),
		CatCopy:      m.CopyPerKB * n(st.ClientBytes) / 1024,
		CatTimestamp: m.Timestamp * n(st.Timestamps),
		CatServer:    m.ServerFixed * n(st.CursorSteps),
		CatCached:    m.CachedBlock * n(st.BlocksInterpreted),
		CatSeek:      m.DeviceSeek * n(st.DeviceReads),
		CatCold:      m.ColdFetch * n(st.ColdFetches),
		CatTransfer:  m.DeviceReadPerKB * n(int64(blockSize)) / 1024 * n(st.DeviceReads+st.ColdFetches),
	}
	var total time.Duration
	for _, d := range split {
		total += d
	}
	return total, split
}
