package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"clio/internal/archive"
	"clio/internal/cache"
	"clio/internal/client"
	"clio/internal/cluster"
	"clio/internal/core"
	"clio/internal/entrymap"
	"clio/internal/obs"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// keepBlocks bounds the block images a traced device saves for timing
// blockfmt.Parse afterwards.
const keepBlocks = 8192

// stackLauncher assembles, inside the benchmark process and from public
// constructors only, the stack cliod assembles with default flags —
// wodev.OpenFile → core.New/Open with a FileNVRAM and the directory cold
// tier → shard.Single → server.NewStore on a loopback TCP listener (or
// cluster.New nodes) — with a wrapper on every boundary that takes one.
type stackLauncher struct {
	tr *tracer

	mu     sync.Mutex
	lanes  map[string]uint64 // client-end local address → lane
	leader *stackNode        // the node counters are read from
}

func newStackLauncher(tr *tracer) *stackLauncher {
	return &stackLauncher{tr: tr, lanes: map[string]uint64{}}
}

// stackNode is one in-process server.
type stackNode struct {
	ln  net.Listener
	srv *server.Server // single node
	st  *shard.Store   // single node: owned; cluster leader: the node's
	cl  *cluster.Node  // cluster member
	dev *tracedDevice
	nv  *tracedNVRAM
	reg *obs.Registry
}

func (n *stackNode) addr() string { return n.ln.Addr().String() }
func (n *stackNode) pid() int     { return 0 }

// kill stops serving and releases the store's files. The durability check
// runs against real daemons, so a clean close is enough here.
func (n *stackNode) kill() {
	if n.cl != nil {
		n.cl.Kill()
		n.dev.Close()
		return
	}
	n.srv.Close()
	n.st.Close()
}

// store returns the shard store requests are executed on.
func (n *stackNode) store() *shard.Store {
	if n.cl != nil {
		return n.cl.Store()
	}
	return n.st
}

// media opens the volume file and NVRAM sidecar of dir under the names the
// clio package uses, so a store preloaded through clio.CreateStore opens
// here and the other way round.
func (l *stackLauncher) media(dir string) (*tracedDevice, *tracedNVRAM, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := wodev.OpenFile(filepath.Join(dir, "vol-00000000.clio"), wodev.FileOptions{})
	if err != nil {
		return nil, nil, err
	}
	dev := &tracedDevice{Device: f, tr: l.tr, blocks: make([][]byte, 0, keepBlocks)}
	nv := &tracedNVRAM{StagingNVRAM: core.NewFileNVRAM(filepath.Join(dir, "nvram.clio")), tr: l.tr}
	return dev, nv, nil
}

func (l *stackLauncher) single(ctx context.Context, dir string, create bool) (node, error) {
	dev, nv, err := l.media(dir)
	if err != nil {
		return nil, err
	}
	opt := core.Options{
		NVRAM: nv,
		Allocate: func(_ volume.SeqID, index uint32, _ uint64, blockSize int) (wodev.Device, error) {
			return wodev.OpenFile(filepath.Join(dir, fmt.Sprintf("vol-%08d.clio", index)), wodev.FileOptions{BlockSize: blockSize})
		},
		Cold: &core.ColdTier{
			Backend: archive.NewDir(filepath.Join(dir, "cold")),
			State:   core.NewFileState(filepath.Join(dir, "compact.clio")),
			Release: func(index uint32) error {
				return os.Remove(filepath.Join(dir, fmt.Sprintf("vol-%08d.clio", index)))
			},
		},
	}
	var svc *core.Service
	if create {
		svc, err = core.New(dev, opt)
	} else {
		svc, err = core.Open([]wodev.Device{dev}, opt)
	}
	if err != nil {
		dev.Close()
		return nil, err
	}
	n := &stackNode{st: shard.Single(svc), dev: dev, nv: nv, reg: obs.NewRegistry()}
	n.srv = server.NewStore(n.st)
	n.srv.RegisterMetrics(n.reg) // for the dedup-hit counter
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		n.st.Close()
		return nil, err
	}
	go n.srv.Serve(tracedListener{n.ln, l.wrapServerEnd})
	l.setLeader(n)
	return n, nil
}

func (l *stackLauncher) cluster(ctx context.Context, dir string) ([]node, error) {
	var nodes []*stackNode
	fail := func(err error) ([]node, error) {
		for _, n := range nodes {
			if n.cl != nil {
				n.kill()
			} else if n.ln != nil {
				n.ln.Close()
			}
		}
		return nil, err
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, &stackNode{ln: ln})
		addrs = append(addrs, ln.Addr().String())
	}
	for i, n := range nodes {
		var err error
		if n.dev, n.nv, err = l.media(nodeDir(dir, i)); err != nil {
			return fail(err)
		}
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		n.cl, err = cluster.New(cluster.Config{
			NodeID:   addrs[i],
			Peers:    peers,
			Quorum:   2,
			Devices:  [][]wodev.Device{{n.dev}},
			NVRAMs:   []core.NVRAM{n.nv},
			Opts:     core.Options{BlockSize: wodev.DefaultBlockSize},
			Create:   i == 0,
			TermPath: filepath.Join(nodeDir(dir, i), "term.clio"),
		})
		if err != nil {
			return fail(err)
		}
		if err := n.cl.Start(i == 0); err != nil {
			return fail(err)
		}
		n.reg = obs.NewRegistry()
		n.cl.RegisterMetrics(n.reg)
		ln := n.ln
		if i == 0 {
			ln = tracedListener{n.ln, l.wrapServerEnd}
		}
		go n.cl.Serve(ln)
	}
	l.setLeader(nodes[0])
	out := make([]node, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out, nil
}

func (l *stackLauncher) setLeader(n *stackNode) {
	l.mu.Lock()
	l.leader = n
	l.mu.Unlock()
}

func (l *stackLauncher) currentLeader() *stackNode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.leader
}

// dialOptions makes the client dial through a wrapped socket and registers
// the socket's local address under the lane, so the server end — which
// sees that address as its peer — records its cycles under the same lane.
func (l *stackLauncher) dialOptions(lane int) client.Options {
	return client.Options{DialAddr: func(ctx context.Context, addr string) (net.Conn, error) {
		return l.dial(ctx, addr, uint64(lane))
	}}
}

func (l *stackLauncher) dial(ctx context.Context, addr string, lane uint64) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.lanes[c.LocalAddr().String()] = lane
	l.mu.Unlock()
	return &tracedConn{Conn: c, tr: l.tr, layer: "net", client: true,
		lane: func() (uint64, bool) { return lane, true }}, nil
}

func (l *stackLauncher) wrapServerEnd(c net.Conn) net.Conn {
	peer := c.RemoteAddr().String()
	return &tracedConn{Conn: c, tr: l.tr, layer: "server",
		lane: func() (uint64, bool) {
			l.mu.Lock()
			defer l.mu.Unlock()
			lane, ok := l.lanes[peer]
			return lane, ok
		}}
}

// counters is one reading of everything a traced run takes deltas of.
type counters struct {
	at        time.Time
	core      core.Stats
	cache     cache.Stats
	locate    entrymap.LocateStats
	device    wodev.Stats
	appends   [2]int64 // calls, nanos through the device wrapper
	reads     [2]int64
	stores    [2]int64 // NVRAM stores
	mallocs   uint64
	allocated uint64
	dedupHits int64
	frames    int64 // replication frames emitted (cluster leader)
	peerLag   uint64
}

// snapshot reads the current leader's counters.
func (l *stackLauncher) snapshot() counters {
	n := l.currentLeader()
	c := counters{at: time.Now()}
	if st := n.store(); st != nil {
		svc := st.Service(0)
		c.core, c.cache, c.locate, c.device = svc.Stats(), svc.CacheStats(), svc.LocateStats(), svc.DeviceStats()
	}
	c.appends = [2]int64{n.dev.appends.calls.Load(), n.dev.appends.nanos.Load()}
	c.reads = [2]int64{n.dev.reads.calls.Load(), n.dev.reads.nanos.Load()}
	c.stores = [2]int64{n.nv.stores.calls.Load(), n.nv.stores.nanos.Load()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocated = ms.Mallocs, ms.TotalAlloc
	for _, m := range n.reg.Snapshot() {
		switch m.Name {
		case "clio_server_dedup_hits_total":
			c.dedupHits = m.Value
		case "clio_cluster_frames_total":
			c.frames = m.Value
		}
	}
	if n.cl != nil {
		for _, p := range n.cl.Status().Peers {
			c.peerLag = max(c.peerLag, p.Lag)
		}
	}
	return c
}
