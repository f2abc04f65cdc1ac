package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clio/internal/core"
	"clio/internal/wodev"
)

// The wrappers below are how a traced run measures layers from outside:
// each sits on a public boundary (wodev.Device, core.StagingNVRAM,
// net.Conn), records a span per call and keeps running totals.

// opTotals accumulates calls and busy time for one kind of call.
type opTotals struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (o *opTotals) observe(d time.Duration) {
	o.calls.Add(1)
	o.nanos.Add(int64(d))
}

// tracedDevice wraps the write-once device under a store.
type tracedDevice struct {
	wodev.Device
	tr      *tracer
	appends opTotals
	reads   opTotals

	// blocks holds a copy of every block read, up to its capacity, so that
	// blockfmt.Parse can be timed afterwards over exactly the blocks the
	// run fetched.
	mu     sync.Mutex
	blocks [][]byte
}

func (d *tracedDevice) ReadBlock(idx int, dst []byte) error {
	t0 := time.Now()
	err := d.Device.ReadBlock(idx, dst)
	t1 := time.Now()
	d.reads.observe(t1.Sub(t0))
	d.tr.add("wodev.read", 0, 0, t0, t1)
	if err == nil {
		d.mu.Lock()
		if len(d.blocks) < cap(d.blocks) {
			d.blocks = append(d.blocks, append([]byte(nil), dst[:d.Device.BlockSize()]...))
		}
		d.mu.Unlock()
	}
	return err
}

// forgetBlocks drops the block images saved so far.
func (d *tracedDevice) forgetBlocks() {
	d.mu.Lock()
	d.blocks = d.blocks[:0]
	d.mu.Unlock()
}

func (d *tracedDevice) AppendBlock(data []byte) (int, error) {
	t0 := time.Now()
	idx, err := d.Device.AppendBlock(data)
	t1 := time.Now()
	d.appends.observe(t1.Sub(t0))
	d.tr.add("wodev.append", 0, 0, t0, t1)
	return idx, err
}

func (d *tracedDevice) WriteAt(idx int, data []byte) error {
	t0 := time.Now()
	err := d.Device.WriteAt(idx, data)
	t1 := time.Now()
	d.appends.observe(t1.Sub(t0))
	d.tr.add("wodev.append", 0, 0, t0, t1)
	return err
}

// tracedNVRAM wraps the NVRAM sidecar. It implements core.StagingNVRAM, so
// the seal pipeline stays on exactly as with a bare FileNVRAM.
type tracedNVRAM struct {
	core.StagingNVRAM
	tr     *tracer
	stores opTotals // Store and StoreSealed: the calls a force waits for
}

var _ core.StagingNVRAM = (*tracedNVRAM)(nil)

func (n *tracedNVRAM) Store(global int, image []byte) error {
	t0 := time.Now()
	err := n.StagingNVRAM.Store(global, image)
	n.observe(t0)
	return err
}

func (n *tracedNVRAM) StoreSealed(global int, image []byte) error {
	t0 := time.Now()
	err := n.StagingNVRAM.StoreSealed(global, image)
	n.observe(t0)
	return err
}

func (n *tracedNVRAM) observe(t0 time.Time) {
	t1 := time.Now()
	n.stores.observe(t1.Sub(t0))
	n.tr.add("nvram.store", 0, 0, t0, t1)
}

// tracedConn wraps one end of a benchmark connection and cuts its traffic
// into request cycles. On the client end a cycle runs from the start of
// the request's first Write to the return of the response's last Read —
// the time the client library is blocked on the wire and the server. On
// the server end it runs from the return of the request's last Read to the
// return of the response's last Write — the server-side span. One request
// is outstanding at a time, so cycle k on one end is cycle k on the other.
type tracedConn struct {
	net.Conn
	tr     *tracer
	layer  string // "net" on the client end, "server" on the server end
	client bool
	lane   func() (uint64, bool)

	mu         sync.Mutex
	responding bool // the cycle's second phase has begun
	open       bool
	start, end time.Time
	calls      int64 // Write calls in the cycle
	bytes      int64 // bytes written in the cycle
	cycles     uint64
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	c.mu.Lock()
	if c.client && (c.responding || !c.open) {
		c.emitLocked()
		c.open, c.responding, c.start = true, false, t0
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.mu.Lock()
	c.calls++
	c.bytes += int64(n)
	if !c.client {
		c.responding, c.end = true, t1
	}
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	t1 := time.Now()
	c.mu.Lock()
	if c.client {
		c.responding, c.end = true, t1
	} else if n > 0 {
		if c.responding || !c.open {
			c.emitLocked()
			c.open, c.responding = true, false
		}
		c.start = t1
	}
	c.mu.Unlock()
	return n, err
}

// emitLocked records the finished cycle, if there is one.
func (c *tracedConn) emitLocked() {
	if !c.open || !c.responding {
		return
	}
	lane, ok := c.lane()
	if ok {
		id := c.tr.add(c.layer, 0, lane<<32|c.cycles, c.start, c.end)
		c.tr.annotate(id, c.calls, c.bytes)
	}
	c.cycles++
	c.calls, c.bytes, c.open = 0, 0, false
}

func (c *tracedConn) Close() error {
	c.mu.Lock()
	c.emitLocked()
	c.mu.Unlock()
	return c.Conn.Close()
}

// tracedListener hands the server wrapped connections.
type tracedListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}
