package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/wire"
	wl "clio/internal/workload"
)

// The ladder splits the layers that have no boundary a wrapper fits on
// (server, shard, core). The workload's op is replayed single-threaded
// against one more layer at each rung — core.Service, shard.Store, raw
// frames to the server, the client library — and a layer's cost is its
// rung's median minus the rung below. Under the core rung the device and
// NVRAM wrappers give child spans, so core's self time is a true span
// self time.

const (
	// ladderLaneBase and up are the lanes of ladder connections, apart from
	// the workload lanes 0 and 1.
	ladderLaneBase = 1 << 16
	framesLane     = ladderLaneBase
	clientLane     = ladderLaneBase + 1
	refLane        = ladderLaneBase + 2

	ladderPreload = 4000 // entries appended before the append rungs
)

// Ops per rung, sized so that a whole ladder takes a few seconds.
var ladderOps = map[string]int{"append_forced": 3000, "append_repl3": 1500, "scan_live": 8000, "seek_cold": 3000}

type ladderResult struct {
	coreUS      float64 // median op time at each rung
	shardUS     float64
	framesUS    float64
	clientUS    float64
	coreSelfUS  float64 // core rung span minus covered device/NVRAM children
	coreChildUS float64 // the covered part
	// serverSpanUS is the server-side span (request read → response
	// written) at the frames rung; refServerSpanUS the same on a single
	// node, which differs only for append_repl3.
	serverSpanUS    float64
	refServerSpanUS float64
}

// rung is one layer's way of doing the workload's op.
type rung interface {
	append(op wl.Op) error
	openCursor(path string) (rungCursor, error)
}

type rungCursor interface {
	next() (eof bool, err error)
	seekTime(ts int64) error
	seekStart() error
}

// coreRung calls core.Service directly.
type coreRung struct {
	svc *core.Service
	ids map[string]uint16
}

func (r coreRung) append(op wl.Op) error {
	_, err := r.svc.Append(r.ids[op.Log], op.Data, core.AppendOptions{Timestamped: op.Timestamped, Forced: true})
	return err
}

func (r coreRung) openCursor(path string) (rungCursor, error) {
	c, err := r.svc.OpenCursor(path)
	return coreCursor{c}, err
}

type coreCursor struct{ c *core.Cursor }

func (c coreCursor) next() (bool, error) {
	_, err := c.c.Next()
	return err == io.EOF, ignoreEOF(err)
}
func (c coreCursor) seekTime(ts int64) error { return c.c.SeekTime(ts) }
func (c coreCursor) seekStart() error        { c.c.SeekStart(); return nil }

func ignoreEOF(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// apiRung calls anything behind the uniform logapi surface: shard.Store
// and client.Client.
type apiRung struct {
	ctx context.Context
	svc logapi.Service
	ids map[string]logapi.ID
}

func (r apiRung) append(op wl.Op) error {
	_, err := r.svc.Append(r.ctx, r.ids[op.Log], op.Data, logapi.AppendOptions{Timestamped: op.Timestamped, Forced: true})
	return err
}

func (r apiRung) openCursor(path string) (rungCursor, error) {
	c, err := r.svc.OpenCursor(r.ctx, path)
	return apiCursor{r.ctx, c}, err
}

type apiCursor struct {
	ctx context.Context
	c   logapi.Cursor
}

func (c apiCursor) next() (bool, error) {
	_, err := c.c.Next(c.ctx)
	return err == io.EOF, ignoreEOF(err)
}
func (c apiCursor) seekTime(ts int64) error { return c.c.SeekTime(c.ctx, ts) }
func (c apiCursor) seekStart() error        { return c.c.SeekStart(c.ctx) }

// frameRung speaks the wire protocol by hand with server.WriteFrame and
// ReadFrame: the server and the socket without the client library.
type frameRung struct {
	conn net.Conn
	seq  *uint64
	ids  map[string]logapi.ID
}

func (r frameRung) call(op byte, payload []byte) (byte, *server.Decoder, error) {
	*r.seq++
	if err := server.WriteFrame(r.conn, op, *r.seq, 0, payload); err != nil {
		return 0, nil, err
	}
	status, _, _, resp, err := server.ReadFrame(r.conn)
	if err != nil {
		return 0, nil, err
	}
	if status != server.StatusOK && status != server.StatusEOF {
		msg, _ := server.NewDecoder(resp).String()
		return status, nil, fmt.Errorf("frame op %d: status %d: %s", op, status, msg)
	}
	return status, server.NewDecoder(resp), nil
}

func (r frameRung) append(op wl.Op) error {
	p := wire.PutUvarint(nil, uint64(r.ids[op.Log]))
	flags := byte(server.AppendForced)
	if op.Timestamped {
		flags |= server.AppendTimestamped
	}
	p = server.PutBytes(append(p, flags), op.Data)
	_, _, err := r.call(server.OpAppend, p)
	return err
}

func (r frameRung) openCursor(path string) (rungCursor, error) {
	_, d, err := r.call(server.OpCursorOpen, server.PutString(nil, path))
	if err != nil {
		return nil, err
	}
	h, err := d.Uint32()
	return frameCursor{r, wire.PutUvarint(nil, uint64(h))}, err
}

type frameCursor struct {
	r      frameRung
	handle []byte
}

func (c frameCursor) next() (bool, error) {
	status, _, err := c.r.call(server.OpNext, c.handle)
	return status == server.StatusEOF, err
}

func (c frameCursor) seekTime(ts int64) error {
	_, _, err := c.r.call(server.OpSeekTime, wire.PutUint64(append([]byte(nil), c.handle...), uint64(ts)))
	return err
}

func (c frameCursor) seekStart() error {
	_, _, err := c.r.call(server.OpSeekStart, c.handle)
	return err
}

// ladderPlan is what the rungs replay, prepared once per workload.
type ladderPlan struct {
	n      int
	stream *opStream    // append rungs: the ops, continued from rung to rung
	path   string       // cursor rungs: the log scanned or seeked in
	seek   *sublogIndex // seek rungs: where to, and what to expect
	tMin   int64
	tMax   int64
	rng    *rand.Rand
}

// climb runs the plan's ops against one rung and returns each op's
// duration in µs. record, when set, gets every op's interval.
func (p *ladderPlan) climb(r rung, record func(i int, t0, t1 time.Time)) ([]float64, error) {
	var cur rungCursor
	if p.path != "" {
		var err error
		if cur, err = r.openCursor(p.path); err != nil {
			return nil, err
		}
	}
	out := make([]float64, 0, p.n)
	for len(out) < p.n {
		var op wl.Op
		var ts int64
		switch {
		case p.stream != nil:
			op = p.stream.next()
		case p.seek != nil:
			ts = p.tMin + int64(p.rng.Float64()*float64(p.tMax-p.tMin))
		}
		var err error
		rewound := false
		t0 := time.Now()
		switch {
		case p.stream != nil:
			err = r.append(op)
		case p.seek != nil:
			if err = cur.seekTime(ts); err == nil {
				_, err = cur.next()
			}
		default:
			if rewound, err = cur.next(); rewound && err == nil {
				err = cur.seekStart()
			}
		}
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if rewound {
			continue // reaching the end and rewinding is not one of the n ops
		}
		if record != nil {
			record(len(out), t0, t1)
		}
		out = append(out, micros(t1.Sub(t0)))
	}
	return out, nil
}

// runLadder prepares a store the way the workload's set-up does (smaller
// for the append workloads, whose op cost does not depend on store size)
// and climbs the four rungs on it.
func runLadder(ctx context.Context, b *bench, name string, seed int64, sl *stackLauncher, chk *checker) (*ladderResult, error) {
	ctx = uncancelled(ctx)
	tr := sl.tr
	plan := &ladderPlan{n: ladderOps[name]}
	dir := b.newDir()
	var nodes []node
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	start := func(dir string, create bool) (*stackNode, error) {
		n, err := sl.single(ctx, dir, create)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
		return n.(*stackNode), nil
	}

	var target, ref *stackNode
	var err error
	preload := 0
	switch name {
	case "append_forced":
		target, err = start(dir, true)
		plan.stream, preload = newOpStream(seed, 0, "/w0"), ladderPreload
	case "append_repl3":
		var members []node
		if members, err = sl.cluster(ctx, dir); err == nil {
			nodes = append(nodes, members...)
			if err = awaitFollowing(ctx, members); err != nil {
				break
			}
			target = members[0].(*stackNode)
			ref, err = start(b.newDir(), true)
		}
		plan.stream, preload = newOpStream(seed, 0, "/w0"), ladderPreload
	case "scan_live":
		target, err = start(dir, true)
		plan.path, preload = "/sessions", scanPreload
	case "seek_cold":
		var e *seekEnv
		if e, err = preloadStore(ctx, dir, seed, chk); err == nil {
			plan.seek, plan.path, plan.tMin, plan.tMax = e.subs[0], e.subs[0].path, e.tMin, e.tMax
			plan.rng = rand.New(rand.NewSource(seed*1024 + 768))
			target, err = start(dir, false)
		}
	default:
		err = fmt.Errorf("no ladder for workload %q", name)
	}
	if err != nil {
		return nil, err
	}

	// Create the log files and preload through the store itself.
	res := &ladderResult{}
	var refIDs map[string]logapi.ID
	ids := map[string]logapi.ID{}
	if preload > 0 {
		stream := plan.stream
		if stream == nil {
			stream = newOpStream(seed, 0, "")
		}
		if ids, err = prepareStore(ctx, target, stream, preload); err != nil {
			return nil, err
		}
		if ref != nil {
			if refIDs, err = prepareStore(ctx, ref, stream.rewound(), preload); err != nil {
				return nil, err
			}
		}
	}
	if target.cl != nil {
		if err := awaitReplicated(ctx, nodes[:3]); err != nil {
			return nil, err
		}
	}
	local := map[string]uint16{}
	for path, id := range ids {
		local[path] = id.Local()
	}

	st := target.store()
	if plan.path != "" {
		// A throw-away climb first, so that the first rung does not alone pay
		// for bringing the cache to the state the others find it in.
		if _, err := plan.climb(coreRung{st.Service(0), local}, nil); err != nil {
			return nil, fmt.Errorf("warm-up climb: %w", err)
		}
	}
	// Rung 1: core, with child spans from the device and NVRAM wrappers.
	coreSpans := map[int]bool{}
	core, err := plan.climb(coreRung{st.Service(0), local}, func(i int, t0, t1 time.Time) {
		coreSpans[tr.add("ladder.core", 0, uint64(i), t0, t1)] = true
	})
	if err != nil {
		return nil, fmt.Errorf("core rung: %w", err)
	}
	// Rung 2: shard.
	shard, err := plan.climb(apiRung{ctx, st, ids}, nil)
	if err != nil {
		return nil, fmt.Errorf("shard rung: %w", err)
	}
	// Rung 3: raw frames over a wrapped socket.
	frames, span, err := framesRung(ctx, sl, target, plan, ids, framesLane)
	if err != nil {
		return nil, fmt.Errorf("frames rung: %w", err)
	}
	res.serverSpanUS, res.refServerSpanUS = span, span
	if ref != nil {
		if _, res.refServerSpanUS, err = framesRung(ctx, sl, ref, plan, refIDs, refLane); err != nil {
			return nil, fmt.Errorf("reference frames rung: %w", err)
		}
	}
	// Rung 4: the client library.
	c, err := client.DialContext(ctx, target.addr(), sl.dialOptions(clientLane))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cl, err := plan.climb(apiRung{ctx, c, ids}, nil)
	if err != nil {
		return nil, fmt.Errorf("client rung: %w", err)
	}

	res.coreUS, res.shardUS, res.framesUS, res.clientUS = median(core), median(shard), median(frames), median(cl)
	tr.mu.Lock()
	adopt(tr.spans, "ladder.core", "wodev.append", "wodev.read", "nvram.store")
	self := selfTimes(tr.spans)
	var selfUS, childUS []float64
	for _, s := range tr.spans {
		if coreSpans[s.ID] {
			selfUS = append(selfUS, float64(self[s.ID])/1e3)
			childUS = append(childUS, float64(s.dur()-self[s.ID])/1e3)
		}
	}
	tr.mu.Unlock()
	res.coreSelfUS, res.coreChildUS = median(selfUS), median(childUS)
	return res, nil
}

// prepareStore creates the stream's log files on the node's store and
// appends n of its ops unforced, then forces.
func prepareStore(ctx context.Context, n *stackNode, stream *opStream, count int) (map[string]logapi.ID, error) {
	st := n.store()
	if st == nil {
		return nil, errors.New("node has no store mounted")
	}
	ids := map[string]logapi.ID{}
	for _, path := range stream.logs() {
		id, err := st.CreateLog(ctx, path, 0o644, "bench")
		if err != nil {
			return nil, err
		}
		ids[path] = id
	}
	for i := 0; i < count; i++ {
		op := stream.next()
		if _, err := st.Append(ctx, ids[op.Log], op.Data, logapi.AppendOptions{Timestamped: op.Timestamped}); err != nil {
			return nil, err
		}
	}
	return ids, st.Force(ctx)
}

// framesRung climbs the raw-frame rung against n on its own lane and also
// returns the median server-side span of the rung's requests.
func framesRung(ctx context.Context, sl *stackLauncher, n *stackNode, plan *ladderPlan, ids map[string]logapi.ID, lane uint64) ([]float64, float64, error) {
	conn, err := sl.dial(ctx, n.addr(), lane)
	if err != nil {
		return nil, 0, err
	}
	var seq uint64
	type interval struct{ from, to int64 }
	tr := sl.tr
	var ops []interval
	durs, err := plan.climb(frameRung{conn, &seq, ids}, func(i int, t0, t1 time.Time) {
		ops = append(ops, interval{tr.since(t0), tr.since(t1)})
	})
	conn.Close() // flushes the connection's last cycle into the trace
	if err != nil {
		return nil, 0, err
	}
	// Total the server-end cycles inside each op (a seek makes two requests).
	var served []span
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Layer == "server" && s.Req>>32 == lane {
			served = append(served, s)
		}
	}
	tr.mu.Unlock()
	var spans []float64
	k := 0
	for _, op := range ops {
		for k < len(served) && served[k].Start < op.from {
			k++
		}
		var sum int64
		for ; k < len(served) && served[k].End <= op.to; k++ {
			sum += served[k].dur()
		}
		if sum > 0 {
			spans = append(spans, float64(sum)/1e3)
		}
	}
	return durs, median(spans), nil
}
