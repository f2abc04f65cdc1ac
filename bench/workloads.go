package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"clio"
	"clio/internal/client"
	"clio/internal/logapi"
)

// Workload sizes. Set-up work is a fixed operation count, so setup_s
// compares across commits; measured work is time-boxed by -seconds.
const (
	appendPreload   = 24000  // entries preloaded unforced before append_forced
	replPreload     = 12000  // same for append_repl3 (replicated, so slower)
	scanPreload     = 15000  // ≈ 2.2 MiB stored: half the 4096-block cache
	scanWarmPasses  = 2      // complete reader passes before measuring
	scanWriterRate  = 1000   // paced forced appends per second beside the scan
	seekPreload     = 120000 // ≈ 19 k blocks: several times the cache
	durabilityProbe = 3 * time.Second
)

// runParams are the knobs one pass over a workload takes. The measured run
// uses six windows and three set-ups; the traced run fewer of both.
type runParams struct {
	seed      int64
	plan      loopPlan
	setupReps int
	// rerun: a loop whose window rates spread beyond maxWindowSpreadPct is
	// run once more, and the steadier of the two is reported.
	rerun bool
	// restart, when set, turns on the durability check after an append
	// workload: every node is SIGKILLed, restart brings the leader back on
	// the same directory, and every acknowledged entry is read back.
	restart func(ctx context.Context, n node) (node, error)
	// atLoop, when set, is called just before the measured loop starts
	// (true) and just after it ends (false): where a traced run reads its
	// counters.
	atLoop func(start bool)
}

func (p runParams) loopEdge(start bool) {
	if p.atLoop != nil {
		p.atLoop(start)
	}
}

// loopObs is what one pass of the measured loop showed from outside.
type loopObs struct {
	epoch     time.Time
	byLane    [][]sample    // the measured op's samples, per connection
	spreadPct float64       // (max−min)/median of the window rates
	stealPct  float64       // CPU time the hypervisor withheld during the loop
	roundTrip time.Duration // the speed gauge: median of the calibration slots' readings

	serverCPU   time.Duration // leader cliod
	followerCPU time.Duration
	loadgenCPU  time.Duration
	loopOps     int // ops completed, warm-up included

	paceLate []time.Duration // scan_live's writer: send time − due time
}

// measurement is what one pass over a workload observed from outside.
type measurement struct {
	setupS []float64 // wall time of each set-up
	loopObs
	reran bool // the loop was run twice, see runParams.rerun

	// Observed after the first loop (see observeLeader):
	userBytes   int64 // payload bytes appended, preload included
	storedBytes int64 // Σ size of the leader's volume files, after a Force
	rssPeakMB   float64

	recoveryMS float64
}

// workload is one of the benchmark's four traffic mixes; BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench, l launcher, p runParams, chk *checker) (*measurement, error)
}

var workloads = []workload{
	{"append_forced", func(ctx context.Context, b *bench, l launcher, p runParams, chk *checker) (*measurement, error) {
		return runAppend(ctx, b, l, p, chk, false)
	}},
	{"append_repl3", func(ctx context.Context, b *bench, l launcher, p runParams, chk *checker) (*measurement, error) {
		return runAppend(ctx, b, l, p, chk, true)
	}},
	{"scan_live", runScan},
	{"seek_cold", runSeek},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repeatSetup runs setup p.setupReps times on fresh directories, timing
// each from its first store or daemon action to its first measured-ready
// Ping, tears down all but the last, and returns that one.
func repeatSetup[E interface{ teardown() }](b *bench, p runParams, m *measurement, setup func(dir string) (E, error)) (E, error) {
	var env E
	for rep := 0; rep < p.setupReps; rep++ {
		dir := b.newDir()
		t0 := time.Now()
		var err error
		env, err = setup(dir)
		if err != nil {
			return env, fmt.Errorf("set-up %d: %w", rep, err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		if rep < p.setupReps-1 {
			env.teardown()
			os.RemoveAll(dir)
		}
	}
	return env, nil
}

// uncancelled strips cancellation from the context the client calls carry:
// for a cancellable one client.roundTrip starts a goroutine per request,
// which would be load-generator overhead inside every measured latency. A
// hung run is ended by the workload's watchdog instead.
func uncancelled(ctx context.Context) context.Context { return context.WithoutCancel(ctx) }

// measure runs the measured loop: lanes runs every connection's loop from
// o.epoch for the plan's time and leaves their samples in o.byLane. Around
// it go everything read from outside: the speed gauge in the plan's
// calibration slots, the traced run's hooks, the CPU times of pids ([0] the
// load generator, 0 = this process; [1] the leader; then followers) and
// the host's steal time. after runs once each loop has ended: the workload's
// checks and observations of the daemon.
func (m *measurement) measure(b *bench, p runParams, pids []int, lanes func(o *loopObs) error, after func() error) error {
	for {
		o := loopObs{}
		p.loopEdge(true)
		host0 := readHostCPU()
		cpu0 := make([]time.Duration, len(pids))
		for i, pid := range pids {
			cpu0[i], _ = cpuTime(pid) // a vanished process fails the run elsewhere
		}
		o.epoch = time.Now()
		gauged := b.gauge.follow(o.epoch, p.plan)
		if err := lanes(&o); err != nil {
			return err
		}
		var err error
		if o.roundTrip, err = gauged(); err != nil {
			return fmt.Errorf("speed gauge: %w", err)
		}
		p.loopEdge(false)
		for i, pid := range pids {
			t, _ := cpuTime(pid)
			switch d := t - cpu0[i]; i {
			case 0:
				o.loadgenCPU = d
			case 1:
				o.serverCPU = d
			default:
				o.followerCPU += d
			}
		}
		o.stealPct = readHostCPU().stealPctSince(host0)
		if err := after(); err != nil {
			return err
		}
		for _, s := range o.byLane {
			o.loopOps += len(s)
		}
		ws, _ := splitWindows(o.byLane, p.plan)
		o.spreadPct = spreadPct(ws)

		// Keep the steadier loop; run a second one only if the first was
		// disturbed (see runParams.rerun).
		if !m.reran || o.spreadPct < m.spreadPct {
			m.loopObs = o
		}
		if !p.rerun || m.reran || o.spreadPct <= maxWindowSpreadPct {
			return nil
		}
		m.reran = true
	}
}

// closedLoops runs op(k) in a closed loop on each of n lanes at once.
func closedLoops(o *loopObs, p loopPlan, n int, op func(k int) error) error {
	o.byLane = make([][]sample, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			o.byLane[k], errs[k] = closedLoop(o.epoch, p, func() error { return op(k) })
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ---- append_forced / append_repl3 ----

type appendEnv struct {
	dir    string // the leader's store directory
	nodes  []node // [0] is the leader
	lanes  []*lane
	stats0 client.Stats
}

func (e *appendEnv) teardown() {
	for _, ln := range e.lanes {
		ln.c.Close()
	}
	for _, n := range e.nodes {
		n.kill()
	}
}

func setupAppend(ctx context.Context, l launcher, dir string, p runParams, chk *checker, repl bool) (*appendEnv, error) {
	e := &appendEnv{dir: dir}
	preload := appendPreload
	if repl {
		nodes, err := l.cluster(ctx, dir)
		if err != nil {
			return e, err
		}
		e.nodes, e.dir, preload = nodes, nodeDir(dir, 0), replPreload
		if err := awaitFollowing(ctx, nodes); err != nil {
			return e, err
		}
	} else {
		n, err := l.single(ctx, dir, true)
		if err != nil {
			return e, err
		}
		e.nodes = []node{n}
	}
	for k := 0; k < 2; k++ {
		ln, err := dialLane(ctx, l, e.nodes[0].addr(), k)
		if err != nil {
			return e, err
		}
		e.lanes = append(e.lanes, ln)
		if err := ln.attach(ctx, newOpStream(p.seed, k, fmt.Sprintf("/w%d", k))); err != nil {
			return e, err
		}
	}
	var err error
	if e.stats0, err = e.lanes[0].c.Stats(ctx); err != nil {
		return e, err
	}
	// Preload unforced so entrymap levels, catalog and cache reach steady
	// state before anything is timed.
	errs := make([]error, len(e.lanes))
	var wg sync.WaitGroup
	for i, ln := range e.lanes {
		wg.Add(1)
		go func(i int, ln *lane) {
			defer wg.Done()
			errs[i] = ln.preload(ctx, preload/len(e.lanes), chk)
		}(i, ln)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return e, err
	}
	if err := e.lanes[0].c.Force(ctx); err != nil {
		return e, err
	}
	if repl {
		if err := awaitReplicated(ctx, e.nodes); err != nil {
			return e, err
		}
	}
	for _, ln := range e.lanes {
		if err := ln.c.Ping(ctx); err != nil {
			return e, err
		}
	}
	return e, nil
}

func runAppend(ctx context.Context, b *bench, l launcher, p runParams, chk *checker, repl bool) (*measurement, error) {
	m := &measurement{}
	ctx = uncancelled(ctx)
	e, err := repeatSetup(b, p, m, func(dir string) (*appendEnv, error) {
		return setupAppend(ctx, l, dir, p, chk, repl)
	})
	if e != nil {
		defer e.teardown()
	}
	if err != nil {
		return nil, err
	}

	pids := []int{0}
	for _, n := range e.nodes {
		pids = append(pids, n.pid())
	}
	err = m.measure(b, p, pids, func(o *loopObs) error {
		return closedLoops(o, p.plan, len(e.lanes), func(k int) error {
			ln := e.lanes[k]
			chk.attempt(1)
			err := ln.appendNext(ctx, true)
			if err != nil {
				chk.fail("lane %d forced append %d: %v", ln.idx, ln.acked, err)
			}
			return err
		})
	}, func() error {
		return m.checkAndObserve(ctx, e.dir, e.nodes[0], e.stats0, e.lanes, chk)
	})
	if err != nil {
		return nil, err
	}
	if p.restart != nil {
		if m.recoveryMS, err = crashAndVerify(ctx, p.restart, e, chk); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// checkAndObserve, after a Force so that nothing is staged only in memory,
// compares the server's append counters since stats0 with what the lanes
// hold acknowledgements for, and observes the leader.
func (m *measurement) checkAndObserve(ctx context.Context, dir string, leader node, stats0 client.Stats, lanes []*lane, chk *checker) error {
	c := lanes[0].c
	if err := c.Force(ctx); err != nil {
		return err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	var acked, payload int64
	for _, ln := range lanes {
		acked += ln.acked
		payload += ln.ackedBytes
	}
	chk.attempt(2)
	if got := st.EntriesAppended - stats0.EntriesAppended; got != acked {
		chk.fail("server counted %d entries appended, clients hold %d acks", got, acked)
	}
	if got := st.ClientBytes - stats0.ClientBytes; got != payload {
		chk.fail("server counted %d client bytes, clients sent %d in acked appends", got, payload)
	}
	return m.observeLeader(dir, leader, payload)
}

// observeLeader records the payload appended so far, the space the leader's
// volumes take for it and the leader's peak memory. Only the first
// observation is kept: a second loop, run only when the host disturbed the
// first, must not move figures that depend on how much was appended.
func (m *measurement) observeLeader(dir string, leader node, userBytes int64) (err error) {
	if m.userBytes != 0 {
		return nil
	}
	m.userBytes = userBytes
	if m.storedBytes, err = volumeBytes(dir); err != nil {
		return err
	}
	m.rssPeakMB, err = rssPeakMB(leader.pid())
	return err
}

// crashAndVerify is the durability check: SIGKILL every node, restart the
// leader on the same directory and time it to its first Ping (recovery,
// §3.4), kill it again, then open the twice-crashed store in this process
// and compare every acknowledged entry, byte for byte and in order, with
// the regenerated stream. A killed process leaves the page cache intact,
// so this shows the software's recovery, not survival of a power failure.
func crashAndVerify(ctx context.Context, restart func(context.Context, node) (node, error), e *appendEnv, chk *checker) (recoveryMS float64, err error) {
	for _, ln := range e.lanes {
		ln.c.Close()
	}
	for _, n := range e.nodes {
		n.kill()
	}
	t0 := time.Now()
	n, err := restart(ctx, e.nodes[0])
	if err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	e.nodes = []node{n}
	pctx, cancel := context.WithTimeout(ctx, durabilityProbe)
	c, err := client.DialContext(pctx, n.addr(), client.Options{})
	if err == nil {
		err = c.Ping(pctx)
		c.Close()
	}
	cancel()
	if err != nil {
		return 0, fmt.Errorf("restarted leader does not answer: %w", err)
	}
	recoveryMS = float64(time.Since(t0)) / float64(time.Millisecond)
	n.kill()

	st, err := clio.OpenStore(e.dir, clio.DirOptions{})
	if err != nil {
		return 0, fmt.Errorf("reopen crashed store: %w", err)
	}
	defer st.Close()
	verifyLanes(ctx, st, e.lanes, chk)
	return recoveryMS, nil
}

// verifyLanes reads the whole volume sequence log ("/": every entry, in
// log order, with no entrymap-guided skipping) and checks that the entries
// of each lane's log files are exactly the lane's acknowledged ops, in
// order, by regenerating the lane's stream.
func verifyLanes(ctx context.Context, st logapi.Service, lanes []*lane, chk *checker) {
	type replay struct {
		ln     *lane
		stream *opStream
		seen   int64
	}
	owner := map[uint16]*replay{}
	var replays []*replay
	for _, ln := range lanes {
		chk.attempt(int(ln.acked))
		r := &replay{ln: ln, stream: ln.stream.rewound()}
		replays = append(replays, r)
		for _, path := range ln.stream.logs() {
			id, err := st.Resolve(ctx, path)
			if err != nil {
				chk.fail("lane %d read-back: resolve %s: %v", ln.idx, path, err)
				return
			}
			owner[id.Local()] = r
		}
	}
	cur, err := st.OpenCursor(ctx, "/")
	if err != nil {
		chk.fail("read-back: open the volume sequence log: %v", err)
		return
	}
	defer cur.Close()
	for {
		got, err := cur.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			chk.fail("read-back: %v", err)
			return
		}
		r := owner[got.LogID]
		if r == nil {
			continue // the service's own entrymap and catalog entries
		}
		r.seen++
		if r.seen > r.ln.acked {
			continue // counted below
		}
		if want := r.stream.next(); !bytes.Equal(got.Data, want.Data) {
			chk.fail("lane %d read-back: entry %d differs from what was acknowledged", r.ln.idx, r.seen-1)
		}
	}
	for _, r := range replays {
		if r.seen != r.ln.acked {
			chk.fail("lane %d read-back: store holds %d entries, %d were acknowledged", r.ln.idx, r.seen, r.ln.acked)
		}
	}
}

// ---- scan_live ----

type scanEnv struct {
	dir      string
	n        node
	reader   *lane
	writer   *lane
	cur      logapi.Cursor
	expected [][]byte // /sessions entries in log order
	stats0   client.Stats
}

func (e *scanEnv) teardown() {
	for _, ln := range []*lane{e.reader, e.writer} {
		if ln != nil {
			ln.c.Close()
		}
	}
	if e.n != nil {
		e.n.kill()
	}
}

// scanPass reads from the cursor to EOF, checking each entry against the
// generator's, and rewinds. It returns the entries read.
func (e *scanEnv) scanPass(ctx context.Context, chk *checker) (int, error) {
	for i := 0; ; i++ {
		ent, err := e.cur.Next(ctx)
		if err == io.EOF {
			if i != len(e.expected) {
				chk.fail("scan pass ended after %d entries, /sessions holds %d", i, len(e.expected))
			}
			return i, e.cur.SeekStart(ctx)
		}
		if err != nil {
			return i, err
		}
		if i >= len(e.expected) || !bytes.Equal(ent.Data, e.expected[i]) {
			chk.fail("scan pass: entry %d does not match the generator", i)
		}
	}
}

func setupScan(ctx context.Context, l launcher, dir string, p runParams, chk *checker) (*scanEnv, error) {
	e := &scanEnv{dir: dir}
	var err error
	if e.n, err = l.single(ctx, dir, true); err != nil {
		return e, err
	}
	if e.reader, err = dialLane(ctx, l, e.n.addr(), 0); err != nil {
		return e, err
	}
	if e.writer, err = dialLane(ctx, l, e.n.addr(), 1); err != nil {
		return e, err
	}
	if err := e.reader.attach(ctx, newOpStream(p.seed, 0, "")); err != nil {
		return e, err
	}
	if err := e.writer.attach(ctx, newOpStream(p.seed, 1, "/live")); err != nil {
		return e, err
	}
	if e.stats0, err = e.reader.c.Stats(ctx); err != nil {
		return e, err
	}
	// The same ops the reader lane is about to preload, kept for checking.
	mirror := newOpStream(p.seed, 0, "")
	for i := 0; i < scanPreload; i++ {
		if op := mirror.next(); strings.HasPrefix(op.Log, "/sessions/") {
			e.expected = append(e.expected, op.Data)
		}
	}
	if err := e.reader.preload(ctx, scanPreload, chk); err != nil {
		return e, err
	}
	if err := e.reader.c.Force(ctx); err != nil {
		return e, err
	}
	// A cursor over /sessions returns its sublogs' entries too (§2.1).
	if e.cur, err = e.reader.c.OpenCursor(ctx, "/sessions"); err != nil {
		return e, err
	}
	// Complete passes fill the cache and its decoded-block attachments.
	for i := 0; i < scanWarmPasses; i++ {
		n, err := e.scanPass(ctx, chk)
		chk.attempt(n)
		if err != nil {
			return e, err
		}
	}
	return e, e.writer.c.Ping(ctx)
}

func runScan(ctx context.Context, b *bench, l launcher, p runParams, chk *checker) (*measurement, error) {
	m := &measurement{}
	ctx = uncancelled(ctx)
	e, err := repeatSetup(b, p, m, func(dir string) (*scanEnv, error) {
		return setupScan(ctx, l, dir, p, chk)
	})
	if e != nil {
		defer e.teardown()
	}
	if err != nil {
		return nil, err
	}

	pos := 0
	err = m.measure(b, p, []int{0, e.n.pid()}, func(o *loopObs) error {
		var wg sync.WaitGroup
		var writerErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, o.paceLate, writerErr = pacedLoop(newPacer(o.epoch, scanWriterRate), o.epoch, p.plan, func() error {
				chk.attempt(1)
				err := e.writer.appendNext(ctx, true)
				if err != nil {
					chk.fail("paced writer append %d: %v", e.writer.acked, err)
				}
				return err
			})
		}()
		readerErr := closedLoops(o, p.plan, 1, func(int) error {
			chk.attempt(1)
			ent, err := e.cur.Next(ctx)
			if err == io.EOF {
				if pos != len(e.expected) {
					chk.fail("scan ended after %d entries, /sessions holds %d", pos, len(e.expected))
				}
				pos = 0
				if err := e.cur.SeekStart(ctx); err != nil {
					chk.fail("SeekStart: %v", err)
					return err
				}
				return errUnsampled // the rewind costs loop time but is not a Next
			}
			if err != nil {
				chk.fail("Next at %d: %v", pos, err)
				return err
			}
			pos++
			if pos > len(e.expected) || !bytes.Equal(ent.Data, e.expected[pos-1]) {
				chk.fail("Next at %d does not match the generator", pos-1)
				return errUnsampled
			}
			return nil
		})
		wg.Wait()
		return errors.Join(readerErr, writerErr)
	}, func() error {
		return m.checkAndObserve(ctx, e.dir, e.n, e.stats0, []*lane{e.reader, e.writer}, chk)
	})
	return m, err
}

// ---- seek_cold ----

// sublogIndex is what a linear scan of one sublog returned at preload: the
// reference the timed locates are checked against.
type sublogIndex struct {
	path string
	ts   []int64 // effective timestamps, non-decreasing
	data [][]byte
}

type seekEnv struct {
	dir       string
	n         node
	lanes     []*lane
	curs      []logapi.Cursor
	subs      []*sublogIndex
	tMin      int64
	tMax      int64
	userBytes int64
	startupMS float64
}

func (e *seekEnv) teardown() {
	for _, ln := range e.lanes {
		ln.c.Close()
	}
	if e.n != nil {
		e.n.kill()
	}
}

// preloadStore builds the seek_cold store in this process (no daemon is
// running yet), then scans the two target sublogs linearly to record each
// entry's effective timestamp, checking the scan against the generator.
func preloadStore(ctx context.Context, dir string, seed int64, chk *checker) (*seekEnv, error) {
	e := &seekEnv{dir: dir}
	st, err := clio.CreateStore(dir, clio.DirOptions{})
	if err != nil {
		return e, err
	}
	defer st.Close()
	stream := newOpStream(seed, 0, "")
	ids := map[string]clio.ID{}
	for _, path := range stream.logs() {
		if ids[path], err = st.CreateLog(ctx, path, 0o644, "bench"); err != nil {
			return e, err
		}
	}
	e.subs = []*sublogIndex{{path: "/sessions/user00"}, {path: "/sessions/user01"}}
	want := map[string]*[][]byte{}
	for _, s := range e.subs {
		want[s.path] = &[][]byte{}
	}
	chk.attempt(seekPreload)
	for i := 0; i < seekPreload; i++ {
		op := stream.next()
		ts, err := st.Append(ctx, ids[op.Log], op.Data, clio.AppendOptions{Timestamped: op.Timestamped})
		if err != nil {
			chk.fail("preload append %d: %v", i, err)
			return e, err
		}
		if i == 0 {
			e.tMin = ts
		}
		e.tMax = ts
		e.userBytes += int64(len(op.Data))
		if w := want[op.Log]; w != nil {
			*w = append(*w, op.Data)
		}
	}
	if err := st.Force(ctx); err != nil {
		return e, err
	}
	for _, s := range e.subs {
		cur, err := st.OpenCursor(ctx, s.path)
		if err != nil {
			return e, err
		}
		for {
			ent, err := cur.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				return e, err
			}
			s.ts = append(s.ts, ent.Timestamp)
			s.data = append(s.data, ent.Data)
		}
		w := *want[s.path]
		chk.attempt(len(w))
		if len(s.data) != len(w) {
			chk.fail("%s: scan returned %d entries, %d were appended", s.path, len(s.data), len(w))
		}
		for i := 0; i < len(w) && i < len(s.data); i++ {
			if !bytes.Equal(w[i], s.data[i]) {
				chk.fail("%s: scanned entry %d differs from the generator", s.path, i)
			}
		}
		if !sort.SliceIsSorted(s.ts, func(i, j int) bool { return s.ts[i] < s.ts[j] }) {
			chk.fail("%s: effective timestamps decrease along the log", s.path)
		}
	}
	return e, nil
}

func setupSeek(ctx context.Context, l launcher, dir string, p runParams, chk *checker) (*seekEnv, error) {
	e, err := preloadStore(ctx, dir, p.seed, chk)
	if err != nil {
		return e, err
	}
	// Recovery of the preloaded store (no checkpoints: a full
	// reconstruction, §3.4) is inside the set-up time.
	t0 := time.Now()
	if e.n, err = l.single(ctx, dir, false); err != nil {
		return e, err
	}
	for k, s := range e.subs {
		ln, err := dialLane(ctx, l, e.n.addr(), k)
		if err != nil {
			return e, err
		}
		e.lanes = append(e.lanes, ln)
		if k == 0 {
			if err := ln.c.Ping(ctx); err != nil {
				return e, err
			}
			e.startupMS = float64(time.Since(t0)) / float64(time.Millisecond)
		}
		cur, err := ln.c.OpenCursor(ctx, s.path)
		if err != nil {
			return e, err
		}
		e.curs = append(e.curs, cur)
	}
	return e, e.lanes[len(e.lanes)-1].c.Ping(ctx)
}

// seekOnce is the measured op: SeekTime to a uniformly drawn instant of
// the preload interval, then one Next, which must return the first entry
// of the sublog at or after that instant.
func seekOnce(ctx context.Context, cur logapi.Cursor, s *sublogIndex, t int64, chk *checker) error {
	chk.attempt(1)
	if err := cur.SeekTime(ctx, t); err != nil {
		chk.fail("%s: SeekTime: %v", s.path, err)
		return err
	}
	ent, err := cur.Next(ctx)
	want := sort.Search(len(s.ts), func(i int) bool { return s.ts[i] >= t })
	switch {
	case want == len(s.ts):
		if err != io.EOF {
			chk.fail("%s: seek past the last entry returned err=%v, want EOF", s.path, err)
			return errUnsampled
		}
	case err != nil:
		chk.fail("%s: Next after SeekTime: %v", s.path, err)
		return err
	case ent.Timestamp != s.ts[want] || !bytes.Equal(ent.Data, s.data[want]):
		chk.fail("%s: seek to %d returned the entry at %d, want the one at %d (entry %d)",
			s.path, t, ent.Timestamp, s.ts[want], want)
		return errUnsampled
	}
	return nil
}

func runSeek(ctx context.Context, b *bench, l launcher, p runParams, chk *checker) (*measurement, error) {
	m := &measurement{}
	ctx = uncancelled(ctx)
	e, err := repeatSetup(b, p, m, func(dir string) (*seekEnv, error) {
		return setupSeek(ctx, l, dir, p, chk)
	})
	if e != nil {
		defer e.teardown()
	}
	if err != nil {
		return nil, err
	}

	rngs := make([]*rand.Rand, len(e.lanes))
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(p.seed*1024 + 512 + int64(k)))
	}
	span := e.tMax - e.tMin
	err = m.measure(b, p, []int{0, e.n.pid()}, func(o *loopObs) error {
		return closedLoops(o, p.plan, len(e.lanes), func(k int) error {
			t := e.tMin + int64(rngs[k].Float64()*float64(span))
			return seekOnce(ctx, e.curs[k], e.subs[k], t, chk)
		})
	}, func() error {
		return m.observeLeader(e.dir, e.n, e.userBytes)
	})
	m.recoveryMS = e.startupMS
	return m, err
}
