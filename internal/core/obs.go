package core

import (
	"time"

	"clio/internal/cache"
	"clio/internal/entrymap"
	"clio/internal/obs"
	"clio/internal/wodev"
)

// coreMetrics holds the service's registered latency instruments. The
// counter families are CounterFuncs reading the existing Stats structs at
// scrape time, so only histograms (and the trace spans) touch the hot path —
// and those sites are guarded by one atomic pointer load.
type coreMetrics struct {
	appendLat *obs.Histogram // whole client append, wall clock
	forceLat  *obs.Histogram // the durability step of a force, wall clock
	readLat   *obs.Histogram // cursor step / ReadAt, wall clock
	locateLat *obs.Histogram // one locator search, wall clock
	sealLat   *obs.Histogram // sealTailLocked incl. damaged-block slides
	nvramLat  *obs.Histogram // one NVRAM tail store
	appendV   *obs.Histogram // whole client append, vclock-simulated time

	batchEntries *obs.Histogram // entries per committed force batch (count, not time)
}

// met returns the registered metrics, or nil when RegisterMetrics was never
// called. Hot-path sites branch on the nil once and then record through
// nil-safe obs receivers, so an un-instrumented service pays one atomic load
// per operation.
func (s *Service) met() *coreMetrics { return s.obsM.Load() }

// vElapsed reads the virtual clock only when metrics are registered —
// Elapsed takes the clock's mutex, and the un-instrumented path must not.
func (s *Service) vElapsed(m *coreMetrics) time.Duration {
	if m == nil {
		return 0
	}
	return s.opt.Clock.Elapsed()
}

// RegisterMetrics registers every service counter — core, cache, device,
// entrymap locator, fault points and vclock charge categories — plus the
// append/force/read/locate latency histograms in reg, and enables histogram
// recording. Call once per registry, after Open.
func (s *Service) RegisterMetrics(reg *obs.Registry) {
	s.RegisterMetricsLabeled(reg)
}

// RegisterMetricsLabeled is RegisterMetrics with a fixed label set stamped
// onto every registered series — how a sharded store gives each of its
// constituent services a distinct `shard` label within one registry.
//
// The counter callbacks take the same snapshots the public Stats accessors
// take, so a scrape observes each subsystem atomically (never a torn
// struct); distinct subsystems are sampled at slightly different instants,
// which is inherent to any scrape of a live system. Registration itself
// must not perturb the modeled workload: callbacks only read, and nothing
// here ever charges the vclock.
func (s *Service) RegisterMetricsLabeled(reg *obs.Registry, labels ...obs.Label) {
	m := &coreMetrics{
		appendLat: reg.Histogram("clio_core_append_seconds",
			"Wall-clock latency of client appends, queue wait included.", nil, labels...),
		forceLat: reg.Histogram("clio_core_force_seconds",
			"Wall-clock latency of the durability step (NVRAM store or padded seal) of forced writes.", nil, labels...),
		readLat: reg.Histogram("clio_core_read_seconds",
			"Wall-clock latency of cursor steps and positioned reads.", nil, labels...),
		locateLat: reg.Histogram("clio_core_locate_seconds",
			"Wall-clock latency of entrymap locator searches.", nil, labels...),
		sealLat: reg.Histogram("clio_core_seal_seconds",
			"Wall-clock latency of sealing a tail block to the device, damaged-block slides included.", nil, labels...),
		nvramLat: reg.Histogram("clio_core_nvram_store_seconds",
			"Wall-clock latency of staging the tail block to NVRAM.", nil, labels...),
		appendV: reg.Histogram("clio_core_append_vtime_seconds",
			"Vclock-simulated (paper cost model) time of client appends.", nil, labels...),
		// Batch sizes ride the histogram machinery as raw counts: one
		// "nanosecond" per entry, power-of-two buckets.
		batchEntries: reg.Histogram("clio_core_force_batch_entries",
			"Entries per committed force batch (value is a count, not a duration).",
			[]time.Duration{1, 2, 4, 8, 16, 32, 64, 128, 256}, labels...),
	}

	counters := []struct {
		name, help string
		get        func(Stats) int64
	}{
		{"clio_core_entries_appended_total", "Client entries appended.", func(st Stats) int64 { return st.EntriesAppended }},
		{"clio_core_forced_writes_total", "Appends that demanded synchronous durability.", func(st Stats) int64 { return st.ForcedWrites }},
		{"clio_core_blocks_sealed_total", "Tail blocks sealed to the write-once device.", func(st Stats) int64 { return st.BlocksSealed }},
		{"clio_core_dead_blocks_total", "Blocks invalidated due to damage (§2.3.2).", func(st Stats) int64 { return st.DeadBlocks }},
		{"clio_core_client_bytes_total", "Client data bytes appended.", func(st Stats) int64 { return st.ClientBytes }},
		{"clio_core_header_bytes_total", "Entry header and size-slot bytes.", func(st Stats) int64 { return st.HeaderBytes }},
		{"clio_core_entrymap_bytes_total", "Entrymap entry bytes including headers.", func(st Stats) int64 { return st.EntrymapBytes }},
		{"clio_core_catalog_bytes_total", "Catalog entry bytes including headers.", func(st Stats) int64 { return st.CatalogBytes }},
		{"clio_core_padding_bytes_total", "Block bytes wasted by force-sealing.", func(st Stats) int64 { return st.PaddingBytes }},
		{"clio_core_footer_bytes_total", "Per-block footer bytes.", func(st Stats) int64 { return st.FooterBytes }},
		{"clio_core_group_commits_total", "Batch commits serving two or more forced appends.", func(st Stats) int64 { return st.GroupCommits }},
		{"clio_core_batched_forces_total", "Forced appends that shared their commit.", func(st Stats) int64 { return st.BatchedForces }},
		{"clio_core_checkpoints_total", "Recovery checkpoints emitted.", func(st Stats) int64 { return st.Checkpoints }},
		{"clio_core_checkpoint_bytes_total", "Checkpoint payload bytes appended.", func(st Stats) int64 { return st.CheckpointBytes }},
		{"clio_core_adaptive_waits_total", "Force batches that held the adaptive commit window open.", func(st Stats) int64 { return st.AdaptiveWaits }},
		{"clio_core_pipelined_seals_total", "Seals completed through the pipelined device stage.", func(st Stats) int64 { return st.PipelinedSeals }},
		{"clio_compact_entries_relocated_total", "Live entries copied forward by the compactor.", func(st Stats) int64 { return st.EntriesRelocated }},
		{"clio_compact_bytes_relocated_total", "Data bytes of relocated entries.", func(st Stats) int64 { return st.BytesRelocated }},
		{"clio_cold_fetches_total", "Block reads served from the cold backend.", func(st Stats) int64 { return st.ColdFetches }},
	}
	for _, c := range counters {
		get := c.get
		reg.CounterFunc(c.name, c.help, func() int64 { return get(s.Stats()) }, labels...)
	}

	reg.GaugeFunc("clio_core_commit_window_nanoseconds", "Most recent commit-window duration the force leader waited.",
		func() int64 { return s.Stats().CommitWindowNanos }, labels...)
	reg.GaugeFunc("clio_core_inflight_seals", "Sealed blocks staged to NVRAM awaiting their device write.",
		func() int64 { return s.Stats().InflightSeals }, labels...)
	reg.GaugeFunc("clio_core_staged_bytes", "Bytes of sealed block images staged to NVRAM.",
		func() int64 { return s.Stats().StagedBytes }, labels...)
	reg.GaugeFunc("clio_compact_volumes_relocated", "Volumes whose live entries have been copied forward.",
		func() int64 { return s.Stats().VolumesRelocated }, labels...)
	reg.GaugeFunc("clio_compact_volumes_demoted", "Volumes archived to the cold tier and released locally.",
		func() int64 { return s.Stats().VolumesDemoted }, labels...)

	reg.CounterFunc("clio_cache_hits_total", "Block cache hits.",
		func() int64 { return s.CacheStats().Hits }, labels...)
	reg.CounterFunc("clio_cache_misses_total", "Block cache misses.",
		func() int64 { return s.CacheStats().Misses }, labels...)
	reg.CounterFunc("clio_cache_evictions_total", "Block cache evictions.",
		func() int64 { return s.CacheStats().Evictions }, labels...)
	reg.CounterFunc("clio_cache_inserts_total", "Block cache inserts.",
		func() int64 { return s.CacheStats().Inserts }, labels...)
	reg.GaugeFunc("clio_cache_blocks", "Blocks currently cached.",
		func() int64 { return int64(s.blockCache().Len()) }, labels...)
	reg.GaugeFunc("clio_cache_capacity_blocks", "Block cache capacity (0 = unbounded).",
		func() int64 { return int64(s.blockCache().Capacity()) }, labels...)

	reg.CounterFunc("clio_wodev_reads_total", "Device blocks read, summed over mounted volumes.",
		func() int64 { return s.DeviceStats().Reads }, labels...)
	reg.CounterFunc("clio_wodev_appends_total", "Device blocks appended, summed over mounted volumes.",
		func() int64 { return s.DeviceStats().Appends }, labels...)
	reg.CounterFunc("clio_wodev_invalidations_total", "Device blocks invalidated, summed over mounted volumes.",
		func() int64 { return s.DeviceStats().Invalidations }, labels...)
	reg.CounterFunc("clio_wodev_seeks_total", "Non-sequential device reads (seeks), summed over mounted volumes.",
		func() int64 { return s.DeviceStats().Seeks }, labels...)
	reg.CounterFunc("clio_wodev_probes_total", "Reads of unwritten blocks (end-finding probes), summed over mounted volumes.",
		func() int64 { return s.DeviceStats().Probes }, labels...)

	reg.GaugeFunc("clio_recovery_blocks_replayed", "Blocks replayed after the checkpoint at the last recovery (0 when recovery reconstructed fully).",
		func() int64 { return int64(s.LastRecovery().BlocksReplayed) }, labels...)
	reg.GaugeFunc("clio_recovery_checkpoint_used", "Whether the last recovery restored from an in-log checkpoint (1) or reconstructed fully (0).",
		func() int64 {
			if s.LastRecovery().CheckpointUsed {
				return 1
			}
			return 0
		}, labels...)
	reg.GaugeFunc("clio_recovery_entrymap_blocks_scanned", "Raw blocks examined for entrymap state at the last recovery.",
		func() int64 { return int64(s.LastRecovery().EntrymapBlocksScanned) }, labels...)

	reg.CounterFunc("clio_entrymap_entries_examined_total", "Entrymap log entries decoded and inspected by locator searches.",
		func() int64 { return int64(s.LocateStats().EntriesExamined) }, labels...)
	reg.CounterFunc("clio_entrymap_pending_examined_total", "In-memory accumulator bitmap inspections by locator searches.",
		func() int64 { return int64(s.LocateStats().PendingExamined) }, labels...)
	reg.CounterFunc("clio_entrymap_raw_scans_total", "Data blocks scanned directly because entrymap information was missing.",
		func() int64 { return int64(s.LocateStats().RawScans) }, labels...)
	reg.CounterFunc("clio_entrymap_timestamp_reads_total", "Block footers read during time searches.",
		func() int64 { return int64(s.LocateStats().TimestampReads) }, labels...)

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

	if clk := s.opt.Clock; clk != nil {
		reg.GaugeFunc("clio_vclock_elapsed_nanoseconds", "Total virtual time accumulated by the cost model.",
			func() int64 { return int64(clk.Elapsed()) }, labels...)
		reg.CollectorFunc("clio_vclock_charge_nanoseconds_total",
			"Virtual time charged per cost-model category.",
			func(add func(ls []obs.Label, value int64)) {
				for _, cat := range clk.Categories() {
					d, _ := clk.CategoryTotal(cat)
					add(append([]obs.Label{obs.L("category", cat)}, labels...), int64(d))
				}
			})
		reg.CollectorFunc("clio_vclock_charges_total",
			"Cost-model charge events per category.",
			func(add func(ls []obs.Label, value int64)) {
				for _, cat := range clk.Categories() {
					_, n := clk.CategoryTotal(cat)
					add(append([]obs.Label{obs.L("category", cat)}, labels...), n)
				}
			})
	}

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

// Status snapshots the service for /statusz. Sub-snapshots are gathered
// through the same accessors a scrape uses, one lock at a time — never
// nested — to respect the service's lock ordering.
func (s *Service) Status() ServiceStatus {
	st := ServiceStatus{
		BlockSize:         s.opt.BlockSize,
		Degree:            s.opt.Degree,
		NVRAM:             s.opt.NVRAM != nil,
		Pipelined:         s.staging != nil,
		CommitWindowNanos: s.windowNanos.Load(),
		BatchSizes:        s.BatchSizeHistogram(),
		Stats:             s.Stats(),
		Cache:             s.CacheStats(),
		Device:            s.DeviceStats(),
		Locate:            s.LocateStats(),
	}
	st.CacheBlocks = s.blockCache().Len()
	st.Recovery = s.LastRecovery()
	s.forceQMu.Lock()
	st.PendingForces = len(s.forceQ)
	s.forceQMu.Unlock()
	s.mu.Lock()
	st.SealedEnd = s.sealedEnd
	st.TailGlobal = s.tailGlobal
	st.TailDirty = s.tailDirty
	s.mu.Unlock()
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
