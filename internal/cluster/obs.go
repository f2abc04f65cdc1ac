package cluster

import (
	"clio/internal/obs"
	"clio/internal/wire"
)

// PeerStatus is the leader's view of one replica for status reports.
type PeerStatus struct {
	Addr string `json:"addr"`
	// Alive means the replication stream is established and caught up past
	// its base (the pre-gate's liveness input).
	Alive bool `json:"alive"`
	// Quorum means the replica is in the quorum set: it receives each
	// force's frames at once and its acks are the ones the gate waits on.
	// A live replica outside it trails, fed once per flush period.
	Quorum bool `json:"quorum"`
	// Acked is the replica's cumulative ack position; Lag is the stream
	// head minus it.
	Acked uint64 `json:"acked"`
	Lag   uint64 `json:"lag"`
	// CatchupBlocks counts blocks shipped by suffix catch-up rather than
	// live streaming; Resets counts diverged-device resets ordered.
	CatchupBlocks int64 `json:"catchup_blocks"`
	Resets        int64 `json:"resets"`
}

// NodeStatus is the cluster section of a node's status report.
type NodeStatus struct {
	NodeID     string `json:"node_id"`
	Role       string `json:"role"`
	Term       uint64 `json:"term"`
	Epoch      uint64 `json:"epoch"`
	LeaderAddr string `json:"leader_addr,omitempty"`
	Quorum     int    `json:"quorum"`
	// StreamPos and Committed are leader-side: the replication stream head
	// and the quorum commit point. Applied is follower-side: the highest
	// stream position durably applied locally.
	StreamPos uint64 `json:"stream_pos"`
	Committed uint64 `json:"committed"`
	Applied   uint64 `json:"applied"`
	// ShardEnds is each shard's sealed data-block end: on a leader from the
	// live store, on a follower from replicated device extents. Comparing
	// them across nodes is the per-shard replication lag.
	ShardEnds []int        `json:"shard_ends"`
	Peers     []PeerStatus `json:"peers,omitempty"`

	// StreamWrites counts the socket writes the senders made to ship live
	// frames (summed over followers; catch-up not counted) and AcksReceived
	// the cumulative acks read back. StreamPos × followers ÷ StreamWrites is
	// frames per write; AcksReceived ÷ forces is acks per force.
	StreamWrites int64 `json:"stream_writes"`
	AcksReceived int64 `json:"acks_received"`

	Promotions     int64 `json:"promotions"`
	Demotions      int64 `json:"demotions"`
	QuorumTimeouts int64 `json:"quorum_timeouts"`
	QuorumRefusals int64 `json:"quorum_refusals"`
}

// Status snapshots the node's replication state.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	role, term, epoch, leader := n.role, n.term, n.epoch, n.leaderAddr
	store, peers, fol, devs := n.store, n.peers, n.fol, n.devs
	n.mu.Unlock()
	st := NodeStatus{
		NodeID:         n.cfg.NodeID,
		Role:           roleName(role),
		Term:           term,
		Epoch:          epoch,
		LeaderAddr:     leader,
		Quorum:         n.cfg.Quorum,
		StreamPos:      n.stream.Pos(),
		StreamWrites:   n.streamWrites.Load(),
		AcksReceived:   n.acksReceived.Load(),
		Promotions:     n.promotions.Load(),
		Demotions:      n.demotions.Load(),
		QuorumTimeouts: n.quorumTimeouts.Load(),
		QuorumRefusals: n.quorumRefusals.Load(),
	}
	n.commitMu.Lock()
	st.Committed = n.committed
	n.commitMu.Unlock()
	if fol != nil {
		st.Applied = fol.applied.Load()
	}
	if store != nil {
		st.ShardEnds = store.Ends()
	} else {
		// Follower: sealed end per shard from the replicated device extents
		// (Written includes the header block), or the end of the replicated
		// staged tail when it reaches further — the leader's End() counts
		// its staged tail the same way, so the two are comparable.
		st.ShardEnds = make([]int, len(devs))
		for i, shardDevs := range devs {
			total := 0
			for _, d := range shardDevs {
				if w := d.Written(); w > 1 {
					total += w - 1
				}
			}
			if fol != nil && i < len(fol.tailEnds) {
				total = max(total, int(fol.tailEnds[i].Load()))
			}
			st.ShardEnds[i] = total
		}
	}
	for _, p := range peers {
		ps := PeerStatus{
			Addr:          p.addr,
			Alive:         p.alive.Load(),
			Quorum:        p.quorum.Load(),
			Acked:         p.acked.Load(),
			CatchupBlocks: p.catchupBlocks.Load(),
			Resets:        p.resets.Load(),
		}
		if st.StreamPos > ps.Acked {
			ps.Lag = st.StreamPos - ps.Acked
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}

// statusPayload renders the wire answer to OpReplStatus.
func (n *Node) statusPayload() []byte {
	s := n.Status()
	resp := &wire.ReplStatusResp{
		Term:       s.Term,
		Epoch:      s.Epoch,
		LeaderAddr: s.LeaderAddr,
		Applied:    s.Applied,
		Pos:        s.StreamPos,
		Committed:  s.Committed,
	}
	if s.Role == "leader" {
		resp.Role = wire.RoleLeader
	}
	n.mu.Lock()
	devs := n.devs
	n.mu.Unlock()
	for si, shardDevs := range devs {
		for di, dev := range shardDevs {
			ds := wire.ReplDevState{Shard: uint32(si), Dev: uint32(di), Written: uint64(dev.Written())}
			if ds.Written > 0 {
				ds.LastCRC = blockCRC(dev, int(ds.Written)-1)
			}
			resp.Devs = append(resp.Devs, ds)
		}
	}
	return resp.Encode(nil)
}

func roleName(role int) string {
	if role == wire.RoleLeader {
		return "leader"
	}
	return "follower"
}

// RegisterMetrics registers the node's replication instruments.
func (n *Node) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("clio_cluster_role",
		"Replication role: 1 when leader, 0 when follower.", func() int64 {
			if n.isLeader() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("clio_cluster_term",
		"Current replication term.", func() int64 { return int64(n.Term()) })
	reg.GaugeFunc("clio_cluster_stream_pos",
		"Replication stream head position (leader).", func() int64 { return int64(n.stream.Pos()) })
	reg.GaugeFunc("clio_cluster_committed",
		"Quorum commit position (leader).", func() int64 {
			n.commitMu.Lock()
			defer n.commitMu.Unlock()
			return int64(n.committed)
		})
	reg.GaugeFunc("clio_cluster_applied",
		"Highest stream position applied locally (follower).", func() int64 { return int64(n.Applied()) })
	reg.CounterFunc("clio_cluster_promotions_total",
		"Follower-to-leader promotions performed by this node.", func() int64 { return n.promotions.Load() })
	reg.CounterFunc("clio_cluster_demotions_total",
		"Leader step-downs performed by this node.", func() int64 { return n.demotions.Load() })
	reg.CounterFunc("clio_cluster_quorum_timeouts_total",
		"Mutations failed because quorum was not reached in time.", func() int64 { return n.quorumTimeouts.Load() })
	reg.CounterFunc("clio_cluster_quorum_refusals_total",
		"Mutations refused up front for lack of live replicas.", func() int64 { return n.quorumRefusals.Load() })
	reg.CounterFunc("clio_cluster_frames_total",
		"Replication stream frames emitted (every frame takes one stream position).", func() int64 { return int64(n.stream.Pos()) })
	reg.CounterFunc("clio_cluster_stream_writes_total",
		"Socket writes the senders made to ship live frames, summed over followers (frames_total x followers / this = frames per write).",
		func() int64 { return n.streamWrites.Load() })
	reg.CounterFunc("clio_cluster_acks_received_total",
		"Cumulative acks read from followers, summed over followers (one per buffer a follower drained).",
		func() int64 { return n.acksReceived.Load() })
	for _, addr := range n.cfg.Peers {
		addr := addr
		find := func() *peer {
			n.mu.Lock()
			defer n.mu.Unlock()
			for _, p := range n.peers {
				if p.addr == addr {
					return p
				}
			}
			return nil
		}
		reg.GaugeFunc("clio_cluster_peer_lag",
			"Stream positions the replica trails the leader by.", func() int64 {
				if p := find(); p != nil {
					pos := n.stream.Pos()
					if a := p.acked.Load(); pos > a {
						return int64(pos - a)
					}
				}
				return 0
			}, obs.L("peer", addr))
		reg.GaugeFunc("clio_cluster_peer_alive",
			"1 when the replica's stream is established and caught up.", func() int64 {
				if p := find(); p != nil && p.alive.Load() {
					return 1
				}
				return 0
			}, obs.L("peer", addr))
	}
}
