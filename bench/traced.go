package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"clio/internal/blockfmt"
)

// runTraced is the run behind the per-layer metrics. It makes three passes
// over the workload, each shorter than the measured run's:
//
//  1. real: cliod processes started with -admin, for what only a separate
//     process can show (daemon and load-generator CPU, GC cycles, recovery
//     after SIGKILL) and as the untraced reference for trace.overhead_pct;
//  2. stack: the same workload against the stack assembled in this process
//     with a wrapper on every boundary (see stackLauncher);
//  3. ladder: the workload's op replayed single-threaded one layer at a
//     time (see ladder.go), splitting the layers no wrapper fits between.
func runTraced(ctx context.Context, b *bench, w *workload, seed int64, seconds float64) (*result, error) {
	p := runParams{seed: seed, plan: newPlan(seconds, tracedWindows), setupReps: 1}
	chk := &checker{}
	r := &result{workload: w.name, metrics: map[string]metric{}}

	// Pass 1: real daemons.
	real := &cliodLauncher{bin: b.cliod, admin: true}
	p.restart = real.restart
	var gc [2]int64
	p.atLoop = func(start bool) {
		i := 1
		if start {
			i = 0
		}
		gc[i] = real.gcCycles()
	}
	mr, err := w.run(ctx, b, real, p, chk)
	killAllChildren()
	if err != nil {
		reportFailures(w.name, chk)
		return nil, fmt.Errorf("real pass: %w", err)
	}
	realWs, _ := splitWindows(mr.byLane, p.plan)
	realOpsS := medianOfWindows(realWs, func(w windowStat) float64 { return w.opsS })

	// Pass 2: the in-process stack.
	tr := newTracer()
	sl := newStackLauncher(tr)
	var c0, c1 counters
	lagStop := make(chan struct{})
	lagDone := make(chan uint64)
	p.restart = nil // the durability check belongs to real daemons
	p.atLoop = func(start bool) {
		if start {
			now := time.Now()
			tr.record(now.Add(p.plan.win), now.Add(p.plan.total()+time.Second), stackSpanBudget)
			sl.currentLeader().dev.forgetBlocks()
			c0 = sl.snapshot()
			go watchPeerLag(sl, lagStop, lagDone)
			return
		}
		c1 = sl.snapshot()
		close(lagStop)
		c1.peerLag = max(c1.peerLag, <-lagDone)
	}
	ms, err := w.run(ctx, b, sl, p, chk)
	if err != nil {
		reportFailures(w.name, chk)
		return nil, fmt.Errorf("stack pass: %w", err)
	}
	stackDev := sl.currentLeader().dev
	// The client-call spans come from the samples, on a budget of their
	// own: the wrappers may have used up the pass's.
	tr.record(ms.epoch.Add(p.plan.win), ms.epoch.Add(p.plan.total()), ms.loopOps)
	for lane, samples := range ms.byLane {
		for i, s := range samples {
			end := ms.epoch.Add(s.done)
			tr.add("client", 0, uint64(lane)<<32|uint64(i), end.Add(-s.lat), end)
		}
	}

	// Pass 3: the ladder.
	tr.record(time.Now(), time.Now().Add(time.Hour), ladderSpanBudget)
	lad, err := runLadder(ctx, b, w.name, seed, sl, chk)
	if err != nil {
		reportFailures(w.name, chk)
		return nil, fmt.Errorf("ladder: %w", err)
	}

	// Link the chains the wrappers could not link when recording, then
	// total each client call: its own self time, the wire time of its
	// round trips, and the server-side spans inside those. A call without
	// a wire child fell off the end of the span budget and is left out.
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	adopt(spans, "client", "net")
	adopt(spans, "net", "server")
	self := selfTimes(spans)
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	from := tr.since(ms.epoch.Add(p.plan.win))
	to := tr.since(ms.epoch.Add(p.plan.total()))
	var clientSelf, netSelf, serverDur []float64
	var netCalls, netBytes, requests, calls int64
	for _, c := range spans {
		if c.Layer != "client" || c.Start < from || c.End > to || len(kids[c.ID]) == 0 {
			continue
		}
		var wire, served int64
		for _, ni := range kids[c.ID] {
			n := spans[ni]
			wire += self[n.ID]
			netCalls += n.Calls
			netBytes += n.Bytes
			for _, si := range kids[n.ID] {
				served += spans[si].dur()
				netCalls += spans[si].Calls
				netBytes += spans[si].Bytes
				requests++
			}
		}
		calls++
		clientSelf = append(clientSelf, float64(self[c.ID])/1e3)
		netSelf = append(netSelf, float64(wire)/1e3)
		serverDur = append(serverDur, float64(served)/1e3)
	}
	stackWs, buckets := splitWindows(ms.byLane, p.plan)
	stackOpsS := medianOfWindows(stackWs, func(w windowStat) float64 { return w.opsS })
	tracedP50 := medianOfWindows(stackWs, func(w windowStat) float64 { return w.p50us })
	var pooled []sample
	for _, bk := range buckets {
		pooled = append(pooled, bk...)
	}
	lat := latenciesUS(pooled)
	// The hooks bracket the whole loop, warm-up included, so counter deltas
	// are scaled by the ops of the whole loop, not of the windows.
	loopOps := ms.loopOps
	wall := c1.at.Sub(c0.at)
	dCore := func(f func(counters) int64) int64 { return f(c1) - f(c0) }
	forces := dCore(func(c counters) int64 { return c.core.ForcedWrites })
	sealed := dCore(func(c counters) int64 { return c.core.BlocksSealed })
	seeks := 0
	if w.name == "seek_cold" {
		seeks = loopOps
	}
	cacheD := struct{ hits, misses, evictions, inserts int64 }{
		c1.cache.Hits - c0.cache.Hits, c1.cache.Misses - c0.cache.Misses,
		c1.cache.Evictions - c0.cache.Evictions, c1.cache.Inserts - c0.cache.Inserts,
	}
	medianUS := func(layer string) float64 {
		var d []float64
		for _, s := range spans {
			if s.Layer == layer && s.Start >= from && s.End <= to {
				d = append(d, float64(s.dur())/1e3)
			}
		}
		return median(d)
	}
	serverSpan := median(serverDur)
	serverSelf := lad.serverSpanUS - lad.shardUS
	serverWait := serverSpan - lad.serverSpanUS
	attributed := median(clientSelf) + median(netSelf) + serverWait + serverSelf +
		(lad.shardUS - lad.coreUS) + lad.coreSelfUS + lad.coreChildUS
	if w.name == "append_repl3" {
		// The cluster's ladder server span includes the quorum wait; split it.
		serverSelf = lad.refServerSpanUS - lad.shardUS
		attributed = median(clientSelf) + median(netSelf) + serverWait + serverSelf +
			(lad.serverSpanUS - lad.refServerSpanUS) + (lad.shardUS - lad.coreUS) + lad.coreSelfUS + lad.coreChildUS
	}

	set := r.set
	set("trace.p50_us", tracedP50, "us")
	set("trace.ops_s", stackOpsS, "1/s")
	set("trace.overhead_pct", 100*(realOpsS-stackOpsS)/realOpsS, "%")
	set("trace.unattributed_pct", 100*(tracedP50-attributed)/tracedP50, "%")
	set("client.self_us", median(clientSelf), "us")
	set("client.p90_us", percentile(lat, 0.90), "us")
	set("client.p99_us", percentile(lat, 0.99), "us")
	set("client.p999_us", percentile(lat, 0.999), "us")
	set("client.samples", float64(len(pooled)), "count")
	set("net.transit_us", median(netSelf), "us")
	set("net.writes_per_op", div(netCalls, calls), "1/op")
	set("net.bytes_per_op", div(netBytes, calls), "B/op")
	set("server.span_us", serverSpan, "us")
	set("server.self_us", serverSelf, "us")
	set("server.wait_us", serverWait, "us")
	set("server.requests_per_op", div(requests, calls), "1/op")
	set("server.dedup_hits", float64(c1.dedupHits-c0.dedupHits), "count")
	set("proc.allocs_per_op", div(c1.mallocs-c0.mallocs, loopOps), "1/op")
	set("proc.alloc_bytes_per_op", div(c1.allocated-c0.allocated, loopOps), "B/op")
	set("shard.self_us", lad.shardUS-lad.coreUS, "us")
	appendSelf, readSelf, locateSelf := 0.0, 0.0, 0.0
	switch w.name {
	case "append_forced", "append_repl3":
		appendSelf = lad.coreSelfUS
	case "scan_live":
		readSelf = lad.coreSelfUS
	case "seek_cold":
		locateSelf = lad.coreSelfUS
	}
	set("core.append_self_us", appendSelf, "us")
	set("core.read_self_us", readSelf, "us")
	set("core.locate_self_us", locateSelf, "us")
	set("core.nvram_store_us", medianUS("nvram.store"), "us")
	set("core.nvram_stores_per_force", div(c1.stores[0]-c0.stores[0], forces), "ratio")
	set("core.nvram_busy_share", float64(c1.stores[1]-c0.stores[1])/float64(wall), "share")
	set("core.seals_per_force", div(sealed, forces), "ratio")
	set("core.batched_force_share", div(dCore(func(c counters) int64 { return c.core.BatchedForces }), forces), "share")
	set("core.pipelined_seal_share", div(dCore(func(c counters) int64 { return c.core.PipelinedSeals }), sealed), "share")
	set("core.commit_window_us", float64(c1.core.CommitWindowNanos)/1e3, "us")
	set("core.padding_bytes_per_user_byte", div(c1.core.PaddingBytes, c1.core.ClientBytes), "ratio")
	set("core.entrymap_bytes_per_user_byte", div(c1.core.EntrymapBytes, c1.core.ClientBytes), "ratio")
	set("core.header_bytes_per_user_byte", div(c1.core.HeaderBytes+c1.core.FooterBytes+c1.core.CatalogBytes, c1.core.ClientBytes), "ratio")
	set("core.checkpoint_bytes_per_user_byte", div(c1.core.CheckpointBytes, c1.core.ClientBytes), "ratio")
	set("core.recovery_ms", mr.recoveryMS, "ms")
	set("entrymap.entries_examined_per_seek", div(c1.locate.EntriesExamined-c0.locate.EntriesExamined, seeks), "1/op")
	set("entrymap.timestamp_reads_per_seek", div(c1.locate.TimestampReads-c0.locate.TimestampReads, seeks), "1/op")
	set("entrymap.raw_scans_per_seek", div(c1.locate.RawScans-c0.locate.RawScans, seeks), "1/op")
	set("cache.hit_ratio", div(cacheD.hits, cacheD.hits+cacheD.misses), "share")
	set("cache.evictions_per_op", div(cacheD.evictions, loopOps), "1/op")
	set("cache.inserts_per_op", div(cacheD.inserts, loopOps), "1/op")
	set("blockfmt.parse_us_per_block", parseCost(stackDev), "us")
	set("wodev.appends_per_op", div(c1.appends[0]-c0.appends[0], loopOps), "1/op")
	set("wodev.append_us", medianUS("wodev.append"), "us")
	set("wodev.reads_per_op", div(c1.reads[0]-c0.reads[0], loopOps), "1/op")
	set("wodev.read_us", medianUS("wodev.read"), "us")
	set("wodev.seeks_per_op", div(c1.device.Seeks-c0.device.Seeks, loopOps), "1/op")
	set("wodev.busy_share", float64(c1.appends[1]-c0.appends[1]+c1.reads[1]-c0.reads[1])/float64(wall), "share")
	set("cluster.repl_overhead_us", lad.serverSpanUS-lad.refServerSpanUS, "us")
	set("cluster.frames_per_force", div(c1.frames-c0.frames, forces), "ratio")
	set("cluster.follower_cpu_us_per_op", div(micros(mr.followerCPU), mr.loopOps), "us")
	set("cluster.peer_lag_max", float64(c1.peerLag), "count")
	set("cliod.cpu_us_per_op", div(micros(mr.serverCPU), mr.loopOps), "us")
	set("cliod.gc_cycles", float64(gc[1]-gc[0]), "count")
	set("loadgen.cpu_us_per_op", div(micros(mr.loadgenCPU), mr.loopOps), "us")
	set("loadgen.window_spread_pct", mr.spreadPct, "%")
	set("loadgen.pace_ops_s", medianOfWindows(realWs, func(w windowStat) float64 { return w.paceS }), "1/s")
	var late []float64
	for _, d := range mr.paceLate {
		late = append(late, micros(d))
	}
	sort.Float64s(late)
	set("loadgen.pace_late_p99_us", percentile(late, 0.99), "us")
	set("host.round_trip_us", micros(mr.roundTrip), "us")
	set("host.steal_pct", mr.stealPct, "%")
	set("ladder.core_us", lad.coreUS, "us")
	set("ladder.shard_us", lad.shardUS, "us")
	set("ladder.frames_us", lad.framesUS, "us")
	set("ladder.client_us", lad.clientUS, "us")

	r.spreadPct = mr.spreadPct
	r.notes = append(r.notes,
		fmt.Sprintf("real pass: %.1f ops/s over %d windows; stack pass: %.1f ops/s, p50 %.1f us", realOpsS, p.plan.windows, stackOpsS, tracedP50),
		fmt.Sprintf("accounting: client.self %.1f + net.transit %.1f + server.wait %.1f + server.self %.1f + shard.self %.1f + core self %.1f + nvram/device under core %.1f (+ replication %.1f) = %.1f of p50 %.1f us",
			median(clientSelf), median(netSelf), serverWait, serverSelf, lad.shardUS-lad.coreUS, lad.coreSelfUS, lad.coreChildUS,
			lad.serverSpanUS-lad.refServerSpanUS, attributed, tracedP50))
	path := filepath.Join(b.out, "trace-"+w.name+".json")
	if err := tr.writeFile(path, w.name); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("spans written to %s (%d kept, %d dropped)", path, len(spans), tr.dropped))
	r.attempted, r.failed = chk.attempted.Load(), chk.failed.Load()
	reportFailures(w.name, chk)
	return r, nil
}

type number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// div is a/b as a float, 0 when there is nothing to divide by (a metric
// that does not apply to the workload).
func div[A, B number](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// watchPeerLag samples the leader's view of replica lag during the loop
// and reports the largest value seen.
func watchPeerLag(sl *stackLauncher, stop <-chan struct{}, done chan<- uint64) {
	var worst uint64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			done <- worst
			return
		case <-tick.C:
			if n := sl.currentLeader(); n.cl != nil {
				for _, p := range n.cl.Status().Peers {
					worst = max(worst, p.Lag)
				}
			}
		}
	}
}

// parseCost times blockfmt.Parse over the block images the device wrapper
// saved — the blocks the run really read — and returns µs per block.
func parseCost(d *tracedDevice) float64 {
	d.mu.Lock()
	blocks := d.blocks
	d.mu.Unlock()
	if len(blocks) == 0 {
		return 0
	}
	parsed := 0
	t0 := time.Now()
	for _, blk := range blocks {
		if _, err := blockfmt.Parse(blk); err == nil {
			parsed++
		}
	}
	if parsed == 0 {
		return 0
	}
	return micros(time.Since(t0)) / float64(parsed)
}

// gcCycles reads the leader daemon's completed GC cycles from its admin
// endpoint; -1 when it cannot.
func (l *cliodLauncher) gcCycles() int64 {
	if l.leader == nil || l.leader.admin == "" {
		return -1
	}
	resp, err := http.Get("http://" + l.leader.admin + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "clio_go_gc_cycles_total "); ok {
			if v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64); err == nil {
				return v
			}
		}
	}
	return -1
}
