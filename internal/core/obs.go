package core

import (
	"time"

	"clio/internal/cache"
	"clio/internal/entrymap"
	"clio/internal/obs"
	"clio/internal/wodev"
)

// coreMetrics holds the service's registered latency instruments. The
// counter families are the tagged fields of the Stats structs, copied once
// per scrape, so only histograms (and the trace spans) touch the hot path —
// and those sites are guarded by one atomic pointer load.
type coreMetrics struct {
	appendLat *obs.Histogram // whole client append, wall clock
	forceLat  *obs.Histogram // the durability step of a force, wall clock
	readLat   *obs.Histogram // cursor step / ReadAt, wall clock
	locateLat *obs.Histogram // one locator search, wall clock
	sealLat   *obs.Histogram // sealTailLocked incl. damaged-block slides
	nvramLat  *obs.Histogram // one NVRAM tail store

	batchEntries *obs.Histogram // entries per committed force batch (count, not time)
}

// met returns the registered metrics, or nil when RegisterMetrics was never
// called. Hot-path sites branch on the nil once and then record through
// nil-safe obs receivers, so an un-instrumented service pays one atomic load
// per operation.
func (s *Service) met() *coreMetrics { return s.obsM.Load() }

// RegisterMetrics registers every service counter — core, cache, device,
// entrymap locator and fault points — plus the append/force/read/locate
// latency histograms in reg, and enables histogram recording. Call once per
// registry, after Open. The labels are stamped onto every registered
// series — how a sharded store gives each of its constituent services a
// distinct `shard` label within one registry.
//
// A scrape calls each public Stats accessor once and reports every field of
// the copy it returned, so it observes each subsystem atomically (never a
// torn struct) and takes each subsystem's lock once; distinct subsystems are
// sampled at slightly different instants, which is inherent to any scrape
// of a live system. Registration itself must not perturb the modeled
// workload: a scrape only reads.
func (s *Service) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	m := &coreMetrics{
		appendLat: reg.Histogram("clio_core_append_seconds",
			"Wall-clock latency of client appends, queue wait included.", nil, labels...),
		forceLat: reg.Histogram("clio_core_force_seconds",
			"Wall-clock latency of the durability step (NVRAM store or padded seal) of forced writes.", nil, labels...),
		readLat: reg.Histogram("clio_core_read_seconds",
			"Wall-clock latency of reads, one sample per cursor read call: a single step or a whole batch (and one per positioned read).", nil, labels...),
		locateLat: reg.Histogram("clio_core_locate_seconds",
			"Wall-clock latency of entrymap locator searches.", nil, labels...),
		sealLat: reg.Histogram("clio_core_seal_seconds",
			"Wall-clock latency of sealing a tail block to the device, damaged-block slides included.", nil, labels...),
		nvramLat: reg.Histogram("clio_core_nvram_store_seconds",
			"Wall-clock latency of staging the tail block to NVRAM.", nil, labels...),
		// Batch sizes ride the histogram machinery as raw counts: one
		// "nanosecond" per entry, power-of-two buckets.
		batchEntries: reg.Histogram("clio_core_force_batch_entries",
			"Entries per committed force batch (value is a count, not a duration).",
			[]time.Duration{1, 2, 4, 8, 16, 32, 64, 128, 256}, labels...),
	}

	// One snapshot per subsystem per scrape: each struct's tagged fields are
	// its series, all filled from the one copy its accessor returns.
	obs.RegisterStruct(reg, s.Stats, labels...)
	obs.RegisterStruct(reg, s.CacheStats, labels...)
	obs.RegisterStruct(reg, s.DeviceStats, labels...)
	obs.RegisterStruct(reg, s.LocateStats, labels...)
	obs.RegisterStruct(reg, s.LastRecovery, labels...)

	reg.GaugeFunc("clio_cache_blocks", "Blocks currently cached.",
		func() int64 { return int64(s.blockCache().Len()) }, labels...)
	reg.GaugeFunc("clio_cache_capacity_blocks", "Block cache capacity (0 = unbounded).",
		func() int64 { return int64(s.blockCache().Capacity()) }, labels...)

	// Points() is nil-safe, so the fault families are always present in a
	// scrape (empty without an injection registry).
	fr := s.opt.Faults
	reg.CollectorFunc("clio_fault_point_hits_total",
		"Times each named fault-injection point was reached.",
		func(add func(ls []obs.Label, value int64)) {
			for _, p := range fr.Points() {
				add(append([]obs.Label{obs.L("point", p.Name)}, labels...), p.Hits)
			}
		})
	reg.CollectorFunc("clio_fault_point_fired_total",
		"Times each named fault-injection point actually injected a fault.",
		func(add func(ls []obs.Label, value int64)) {
			for _, p := range fr.Points() {
				add(append([]obs.Label{obs.L("point", p.Name)}, labels...), p.Fired)
			}
		})

	s.obsM.Store(m)
}

// VolumeStatus is one mounted volume's row in the status report.
type VolumeStatus struct {
	Index        uint32 `json:"index"`
	StartOffset  uint64 `json:"start_offset"`
	DataCapacity int    `json:"data_capacity"`
	Active       bool   `json:"active"`
}

// ServiceStatus is the core section of /statusz: configuration, tail state,
// volumes and the subsystem counter snapshots.
type ServiceStatus struct {
	BlockSize         int                  `json:"block_size"`
	Degree            int                  `json:"degree"`
	NVRAM             bool                 `json:"nvram"`
	Pipelined         bool                 `json:"pipelined"`
	CommitWindowNanos int64                `json:"commit_window_ns"` // gather window the latest commit leader chose
	BatchSizes        [9]int64             `json:"force_batch_sizes"`
	End               int                  `json:"end"`
	SealedEnd         int                  `json:"sealed_end"`
	TailGlobal        int                  `json:"tail_global"`
	TailDirty         bool                 `json:"tail_dirty"`
	PendingForces     int                  `json:"pending_forces"`
	Volumes           []VolumeStatus       `json:"volumes"`
	Stats             Stats                `json:"stats"`
	Cache             cache.Stats          `json:"cache"`
	CacheBlocks       int                  `json:"cache_blocks"`
	Device            wodev.Stats          `json:"device"`
	Locate            entrymap.LocateStats `json:"locate"`
	Recovery          RecoveryReport       `json:"recovery"`
}

// Status snapshots the service for /statusz. Everything the writer lock
// guards — the counters, the tail state, the recovery report — is copied in
// one critical section, so one answer describes one instant; the other
// subsystems are gathered through the accessors a scrape uses, one lock at
// a time — never nested — to respect the service's lock ordering.
func (s *Service) Status() ServiceStatus {
	st := ServiceStatus{
		BlockSize:  s.opt.BlockSize,
		Degree:     s.opt.Degree,
		NVRAM:      s.opt.NVRAM != nil,
		Pipelined:  s.staging != nil,
		BatchSizes: s.BatchSizeHistogram(),
		Cache:      s.CacheStats(),
		Device:     s.DeviceStats(),
		Locate:     s.LocateStats(),
	}
	st.CacheBlocks = s.blockCache().Len()
	s.mu.Lock()
	st.Stats = s.statsLocked()
	st.Recovery = s.recovery
	st.SealedEnd = s.sealedEnd
	st.TailGlobal = s.tailGlobal
	st.TailDirty = s.tailDirty
	s.mu.Unlock()
	st.CommitWindowNanos = st.Stats.CommitWindowNanos
	s.forceQMu.Lock()
	st.PendingForces = len(s.forceQ)
	s.forceQMu.Unlock()
	st.End = s.End()
	active := s.set.Active()
	for _, v := range s.set.Volumes() {
		st.Volumes = append(st.Volumes, VolumeStatus{
			Index:        v.Hdr.Index,
			StartOffset:  v.Hdr.StartOffset,
			DataCapacity: v.DataCapacity(),
			Active:       v == active,
		})
	}
	return st
}
