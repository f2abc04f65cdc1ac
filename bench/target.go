package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"time"

	"clio/internal/client"
	"clio/internal/server"
	"clio/internal/wire"
)

// node is one running log server: a cliod child process in a measured run,
// a stack assembled inside the benchmark process in a traced run.
type node interface {
	addr() string
	// pid is the process to read /proc counters from; 0 means this process.
	pid() int
	// kill stops the node without a clean shutdown (SIGKILL for a child).
	kill()
}

// launcher starts nodes. The workloads are written once against it, so the
// measured and the traced run drive the same op streams and checks.
type launcher interface {
	// single starts one node on dir, formatting a new store when create.
	single(ctx context.Context, dir string, create bool) (node, error)
	// cluster starts a leader (index 0) and two followers with quorum 2 on
	// fresh stores under dir.
	cluster(ctx context.Context, dir string) ([]node, error)
	// dialOptions returns the client options for the benchmark's lane-th
	// connection (traced runs interpose on the socket here).
	dialOptions(lane int) client.Options
}

// nodeDir is where cluster member i keeps its store under dir.
func nodeDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("node%d", i)) }

// cliodLauncher runs real daemons with default flags only: 1 shard, 1 KiB
// blocks, adaptive force window, FileNVRAM, no -sync, no checkpoints.
type cliodLauncher struct {
	bin   string
	admin bool // traced runs read GC counts from /metrics
	// leader is the daemon started last as a single node or cluster leader.
	leader *daemon
}

func (l *cliodLauncher) args(dir string, create bool, listen string) []string {
	a := []string{"-store", dir, "-listen", listen}
	if create {
		a = append(a, "-create")
	}
	if l.admin {
		a = append(a, "-admin", "127.0.0.1:0")
	}
	return a
}

func (l *cliodLauncher) single(ctx context.Context, dir string, create bool) (node, error) {
	return l.start(ctx, l.args(dir, create, "127.0.0.1:0"), true)
}

func (l *cliodLauncher) start(ctx context.Context, args []string, leader bool) (node, error) {
	d, err := startCliod(ctx, l.bin, args...)
	if err != nil {
		return nil, err
	}
	if leader {
		l.leader = d
	}
	return cliodNode{d, args, leader}, nil
}

// restart starts a killed node again on its directory with the flags it
// had, minus -create.
func (l *cliodLauncher) restart(ctx context.Context, n node) (node, error) {
	old := n.(cliodNode)
	var args []string
	for _, a := range old.args {
		if a != "-create" {
			args = append(args, a)
		}
	}
	return l.start(ctx, args, old.leader)
}

func (l *cliodLauncher) cluster(ctx context.Context, dir string) ([]node, error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	var nodes []node
	for i, a := range addrs {
		n, err := l.member(ctx, nodeDir(dir, i), true, i, addrs)
		if err != nil {
			for _, n := range nodes {
				n.kill()
			}
			return nil, fmt.Errorf("cluster member %d (%s): %w", i, a, err)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// member starts cluster member i of addrs; member 0 is the leader.
func (l *cliodLauncher) member(ctx context.Context, dir string, create bool, i int, addrs []string) (node, error) {
	var peers []string
	for j, a := range addrs {
		if j != i {
			peers = append(peers, a)
		}
	}
	role := "follower"
	if i == 0 {
		role = "leader"
	}
	args := append(l.args(dir, create, addrs[i]),
		"-advertise", addrs[i], "-peers", strings.Join(peers, ","), "-role", role, "-quorum", "2")
	return l.start(ctx, args, i == 0)
}

func (l *cliodLauncher) dialOptions(int) client.Options { return client.Options{} }

type cliodNode struct {
	d      *daemon
	args   []string
	leader bool // a single node or the cluster's leader
}

func (n cliodNode) addr() string { return n.d.addr }
func (n cliodNode) pid() int     { return n.d.pid() }
func (n cliodNode) kill()        { n.d.kill() }

// replStatus asks a cluster member for its replication progress over the
// log-file wire protocol, the way `clio -addr status` does.
func replStatus(addr string) (*wire.ReplStatusResp, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := server.WriteFrame(conn, wire.OpReplStatus, 0, 0, nil); err != nil {
		return nil, err
	}
	status, _, _, payload, err := server.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if status != server.StatusOK {
		return nil, fmt.Errorf("replication status refused by %s (status %d)", addr, status)
	}
	return wire.DecodeReplStatusResp(payload)
}

// pollCluster calls done with the leader's and each follower's replication
// status every millisecond at most, until it holds for every follower.
func pollCluster(ctx context.Context, nodes []node, what string, done func(lead, fol *wire.ReplStatusResp) bool) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		lead, err := replStatus(nodes[0].addr())
		if err != nil {
			return err
		}
		ok := true
		for _, f := range nodes[1:] {
			st, err := replStatus(f.addr())
			if err != nil {
				return err
			}
			ok = ok && done(lead, st)
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w", what, ctx.Err())
		case <-tick.C:
		}
	}
}

// awaitFollowing waits until both followers have accepted the leader's
// replication stream; before that the leader refuses writes for lack of a
// quorum.
func awaitFollowing(ctx context.Context, nodes []node) error {
	return pollCluster(ctx, nodes, "followers never joined the leader", func(_, fol *wire.ReplStatusResp) bool {
		return fol.LeaderAddr == nodes[0].addr()
	})
}

// awaitReplicated waits until every follower has applied the leader's whole
// stream, so set-up ends with all three replicas alive and holding the
// preload.
func awaitReplicated(ctx context.Context, nodes []node) error {
	return pollCluster(ctx, nodes, "followers never caught up with the leader", func(lead, fol *wire.ReplStatusResp) bool {
		return fol.Applied >= lead.Pos
	})
}
