package cluster

import (
	"context"
	"net"
	"sync"

	"clio/internal/faults"
)

// errPartitioned is the transient error a partitioned dial fails with.
var errPartitioned = faults.New(faults.Transient, "cluster test: network partitioned")

// partition simulates network partitions between named nodes for cluster
// chaos tests: it wraps each node's dial function, refuses dials across a
// blocked edge, and severs the connections already established across an
// edge the moment it is blocked (a real partition does not wait for the
// next dial to bite).
//
// Edges are directed internally but every helper blocks both directions;
// names are whatever the test uses to identify nodes (addresses work well).
type partition struct {
	mu      sync.Mutex
	blocked map[[2]string]bool
	conns   map[*trackedConn][2]string
}

// newPartition returns a partition with every edge healthy.
func newPartition() *partition {
	return &partition{
		blocked: make(map[[2]string]bool),
		conns:   make(map[*trackedConn][2]string),
	}
}

// Dialer wraps base so every connection dialed from the named node is
// subject to the partition: dials across a blocked edge fail with
// errPartitioned, and established connections are closed when their edge is
// later blocked. The addr argument of the returned function names the
// remote node.
func (p *partition) Dialer(from string, base func(ctx context.Context, addr string) (net.Conn, error)) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		if p.Blocked(from, addr) {
			return nil, errPartitioned
		}
		conn, err := base(ctx, addr)
		if err != nil {
			return nil, err
		}
		tc := &trackedConn{Conn: conn, p: p}
		p.mu.Lock()
		// The edge may have been blocked while the dial was in flight.
		if p.blocked[[2]string{from, addr}] {
			p.mu.Unlock()
			conn.Close()
			return nil, errPartitioned
		}
		p.conns[tc] = [2]string{from, addr}
		p.mu.Unlock()
		return tc, nil
	}
}

// Blocked reports whether the edge from→to is currently blocked.
func (p *partition) Blocked(from, to string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[[2]string{from, to}]
}

// Isolate blocks both directions between node and each of the others and
// severs their existing connections — the "pull the network cable" chaos
// hook.
func (p *partition) Isolate(node string, others ...string) {
	p.mu.Lock()
	for _, o := range others {
		p.blocked[[2]string{node, o}] = true
		p.blocked[[2]string{o, node}] = true
	}
	var kill []*trackedConn
	for tc, edge := range p.conns {
		if p.blocked[edge] {
			kill = append(kill, tc)
			delete(p.conns, tc)
		}
	}
	p.mu.Unlock()
	for _, tc := range kill {
		tc.Conn.Close()
	}
}

// HealAll unblocks every edge.
func (p *partition) HealAll() {
	p.mu.Lock()
	p.blocked = make(map[[2]string]bool)
	p.mu.Unlock()
}

// trackedConn unregisters itself on Close so the conns map does not grow
// without bound across reconnect cycles.
type trackedConn struct {
	net.Conn
	p    *partition
	once sync.Once
}

func (tc *trackedConn) Close() error {
	tc.once.Do(func() {
		tc.p.mu.Lock()
		delete(tc.p.conns, tc)
		tc.p.mu.Unlock()
	})
	return tc.Conn.Close()
}
