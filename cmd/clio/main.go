// Command clio is the command-line client for a Clio log server (or a local
// store): create log files, append entries, read them back, list the log
// directory hierarchy, and seek by time.
//
// Against a server:
//
//	clio -addr localhost:7846 create /audit
//	echo "user smith logged in" | clio -addr localhost:7846 append /audit
//	clio -addr localhost:7846 cat /audit
//	clio -addr localhost:7846 tail -n 10 /audit
//	clio -addr localhost:7846 ls /
//	clio -addr localhost:7846 stat /audit
//
// Against a local store directory (no server):
//
//	clio -store /var/lib/clio cat /audit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"clio"
	"clio/internal/archive"
	"clio/internal/client"
	"clio/internal/cluster"
	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/scrub"
	"clio/internal/server"
	"clio/internal/stream/group"
	"clio/internal/volume"
	"clio/internal/wire"
	"clio/internal/wodev"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: clio [-addr host:port | -store dir] [-tenant T -token S] <command> [args]

-store mode opens the store in-process, at the geometry the store records.
Against a multi-tenant server, -tenant and -token authenticate the session;
paths must then live under /<tenant>.

commands:
  create <path>            create a log file (parents must exist)
  append <path>            append one entry per stdin line (forced)
  cat <path>               print every entry
  tail [-n K] [-f] <path>  print the last K entries; -f follows via a live
                           tail subscription (no polling)
  tail -f -group G [-member M] [-partitions N] <topic>
                           consume a partitioned topic as a consumer-group
                           member, acking each entry into /.offsets/G
  since <path> <RFC3339>   print entries at/after a time
  ls <path>                list sublogs
  stat <path>              show a log file's descriptor
  retire <path>            close a log file for appends
  stats                    server counters
  status                   cluster role, term and per-shard replication lag
                           (-admin for a node's admin endpoint, or -addr)
  promote                  promote the follower at -addr to cluster leader
  fsck [-repair]           verify a local store's media, demoted cold
                           volumes included (-store only; the NVRAM-staged
                           tail is not on the media yet)
  du                       per-log-file space usage plus the hot/cold byte
                           split per shard (-store only)
  compact [-max-live F] [-min-hot N] [-max-volumes N]
                           run one compaction pass: copy live entries of
                           mostly-dead sealed volumes forward, demote them
                           to the cold tier, delete the local files
                           (-store only, offline)
  backup <archive-dir>     incremental backup of a local store, demoted
                           cold volumes included (-store only)
  verify-backup <archive-dir>  open an archive and scrub it
`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "", "log server address")
	store := flag.String("store", "", "local store directory (serve in-process)")
	adminAddr := flag.String("admin", "", "cluster node admin (HTTP) address, for status")
	tenant := flag.String("tenant", "", "tenant name for a multi-tenant server (with -token)")
	token := flag.String("token", "", "tenant shared secret (with -tenant)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}

	switch args[0] {
	case "status":
		runStatus(*adminAddr, *addr)
		return
	case "promote":
		runPromote(*addr)
		return
	case "fsck":
		runFsck(*store, args[1:])
		return
	case "compact":
		runCompact(*store, args[1:])
		return
	case "backup":
		need(args, 2)
		runBackup(*store, args[1])
		return
	case "verify-backup":
		need(args, 2)
		runVerifyBackup(args[1])
		return
	case "du":
		runDu(*store)
		return
	}

	ctx := context.Background()
	cl, cleanup, err := connect(*addr, *store, *tenant, *token)
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	switch args[0] {
	case "create":
		need(args, 2)
		id, err := cl.CreateLog(ctx, args[1], 0o644, os.Getenv("USER"))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("created %s (id %d)\n", args[1], id)

	case "append":
		need(args, 2)
		id, err := cl.Resolve(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		// The Writer counts a degraded append (durable, relocated past a
		// damaged block) as written, so the lines after it still go in.
		w := client.NewWriter(ctx, cl, id, client.AppendOptions{Timestamped: true, Forced: true})
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		n := 0
		for sc.Scan() {
			if _, err := w.Write(sc.Bytes()); err != nil {
				fatal(err)
			}
			n++
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
		fmt.Printf("appended %d entries\n", n)

	case "cat":
		need(args, 2)
		cur, err := cl.OpenCursor(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		defer cur.Close()
		dump(ctx, cur, -1)

	case "tail":
		fs := flag.NewFlagSet("tail", flag.ExitOnError)
		n := fs.Int("n", 10, "entries")
		follow := fs.Bool("f", false, "keep following new entries (live tail subscription)")
		grp := fs.String("group", "", "consume as a member of this consumer group; the path argument is the topic")
		member := fs.String("member", "", "member name within -group (default host-pid)")
		parts := fs.Int("partitions", 1, "partition count of the -group topic")
		_ = fs.Parse(args[1:])
		if fs.NArg() != 1 {
			usage()
		}
		if *grp != "" {
			if !*follow {
				fatal(fmt.Errorf("tail -group requires -f"))
			}
			runGroupTail(ctx, cl, *grp, *member, fs.Arg(0), *parts)
			return
		}
		cur, err := cl.OpenCursor(ctx, fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer cur.Close()
		if err := cur.SeekEnd(ctx); err != nil {
			fatal(err)
		}
		var entries []*client.Entry
		for len(entries) < *n {
			e, err := cur.Prev(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(err)
			}
			entries = append(entries, e)
		}
		for i := len(entries) - 1; i >= 0; i-- {
			printEntry(entries[i])
		}
		if *follow {
			// Live tail: subscribe from the gap position after the newest
			// printed entry on each shard. Each Recv that runs out of
			// entries finds a pull parked on the server, answered as group
			// commit publishes — no polling.
			var from []logapi.Position
			seen := make(map[int]bool)
			for _, e := range entries { // newest-first, so first hit per shard wins
				if !seen[e.Shard] {
					seen[e.Shard] = true
					from = append(from, logapi.Position{Shard: e.Shard, Block: e.Block, Rec: e.Index + 1})
				}
			}
			sub, err := cl.Watch(ctx, fs.Arg(0), logapi.WatchOptions{From: from})
			if err != nil {
				fatal(err)
			}
			defer sub.Close()
			for {
				e, err := sub.Recv(ctx)
				if err != nil {
					fatal(err)
				}
				printEntry(e)
			}
		}

	case "since":
		need(args, 3)
		ts, err := time.Parse(time.RFC3339, args[2])
		if err != nil {
			fatal(fmt.Errorf("bad time %q: %w (want RFC3339)", args[2], err))
		}
		cur, err := cl.OpenCursor(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		defer cur.Close()
		if err := cur.SeekTime(ctx, ts.UnixNano()); err != nil {
			fatal(err)
		}
		dump(ctx, cur, -1)

	case "ls":
		need(args, 2)
		names, err := cl.List(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}

	case "stat":
		need(args, 2)
		st, err := cl.Stat(ctx, args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("id:      %d\nname:    %s\nperms:   %o\nowner:   %s\ncreated: %s\nretired: %v\nsystem:  %v\n",
			st.ID, st.Name, st.Perms, st.Owner,
			time.Unix(0, st.Created).Format(time.RFC3339), st.Retired, st.System)

	case "retire":
		need(args, 2)
		if err := cl.Retire(ctx, args[1]); err != nil {
			fatal(err)
		}

	case "stats":
		st, err := cl.Stats(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("entries appended: %d\nblocks sealed:    %d\nclient bytes:     %d\ndata blocks:      %d\n",
			st.EntriesAppended, st.BlocksSealed, st.ClientBytes, st.EndBlocks)

	default:
		usage()
	}
}

// runGroupTail consumes a partitioned topic as one member of a consumer
// group: partitions are divided among the group's live members, every
// printed entry is acknowledged into the group's offsets log, and a
// restarted member resumes after the group's last acknowledged entry.
func runGroupTail(ctx context.Context, cl *client.Client, grp, member, topic string, partitions int) {
	if member == "" {
		host, _ := os.Hostname()
		member = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	c, err := group.Join(ctx, cl, grp, member, topic, partitions, group.Options{})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(os.Stderr, "clio: joined group %q as %q (topic %s, %d partitions)\n",
		grp, member, topic, partitions)
	for {
		m, err := c.Recv(ctx)
		if err != nil {
			fatal(err)
		}
		err = c.Ack(ctx, m)
		if errors.Is(err, group.ErrNotOwner) {
			continue // partition moved between delivery and ack; the new owner redelivers
		}
		if err != nil {
			fatal(err) // over quota, or the server is gone: unacked, so the group redelivers it
		}
		fmt.Printf("[p%d] ", m.Partition)
		printEntry(m.Entry)
	}
}

// runStatus prints a node's status, read from its admin endpoint (-admin)
// or over the log-file wire protocol (-addr): cluster role, term and
// per-shard replication state in cluster mode, plus each shard's
// compaction state (volumes relocated and demoted cold) when the admin
// endpoint serves it.
func runStatus(adminAddr, addr string) {
	var st cluster.NodeStatus
	switch {
	case adminAddr != "":
		resp, err := http.Get("http://" + adminAddr + "/statusz")
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Cluster *cluster.NodeStatus  `json:"cluster"`
			Shards  []core.ServiceStatus `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			fatal(fmt.Errorf("parse %s/statusz: %w", adminAddr, err))
		}
		if doc.Cluster == nil && doc.Shards == nil {
			fatal(fmt.Errorf("%s serves neither a cluster nor a shards section in /statusz", adminAddr))
		}
		for i, sh := range doc.Shards {
			fmt.Printf("shard %d: %d data blocks, %d volumes hot, %d relocated, %d demoted cold, %d cold fetches\n",
				i, sh.End, len(sh.Volumes), sh.Stats.VolumesRelocated, sh.Stats.VolumesDemoted, sh.Stats.ColdFetches)
		}
		if doc.Cluster == nil {
			return
		}
		st = *doc.Cluster
	case addr != "":
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			fatal(err)
		}
		defer conn.Close()
		if err := server.WriteFrame(conn, wire.OpReplStatus, 0, 0, nil); err != nil {
			fatal(err)
		}
		status, _, _, payload, err := server.ReadFrame(conn)
		if err != nil {
			fatal(err)
		}
		if status != server.StatusOK {
			fatal(fmt.Errorf("status request refused (status %d)", status))
		}
		r, err := wire.DecodeReplStatusResp(payload)
		if err != nil {
			fatal(err)
		}
		st = cluster.NodeStatus{
			NodeID: addr, Term: r.Term, Epoch: r.Epoch, LeaderAddr: r.LeaderAddr,
			StreamPos: r.Pos, Committed: r.Committed, Applied: r.Applied,
			Role: "follower",
		}
		if r.Role == wire.RoleLeader {
			st.Role = "leader"
		}
		ends := map[uint32]int{}
		for _, d := range r.Devs {
			if d.Written > 0 {
				ends[d.Shard] += int(d.Written) - 1
			}
		}
		for i := 0; i < len(ends); i++ {
			st.ShardEnds = append(st.ShardEnds, ends[uint32(i)])
		}
	default:
		fatal(fmt.Errorf("status requires -admin or -addr"))
	}

	fmt.Printf("node:   %s\nrole:   %s (term %d, epoch %d)\n", st.NodeID, st.Role, st.Term, st.Epoch)
	if st.LeaderAddr != "" && st.Role != "leader" {
		fmt.Printf("leader: %s\n", st.LeaderAddr)
	}
	if st.Quorum > 0 {
		fmt.Printf("quorum: %d (stream %d, committed %d, applied %d)\n",
			st.Quorum, st.StreamPos, st.Committed, st.Applied)
	} else {
		fmt.Printf("stream: %d, committed %d, applied %d\n", st.StreamPos, st.Committed, st.Applied)
	}
	for i, end := range st.ShardEnds {
		fmt.Printf("shard %d: %d data blocks\n", i, end)
	}
	for _, p := range st.Peers {
		state := "down"
		if p.Alive {
			state = "streaming (trailing)"
			if p.Quorum {
				state = "streaming (quorum)"
			}
		}
		fmt.Printf("replica %s: %s, lag %d (acked %d, catch-up blocks %d, resets %d)\n",
			p.Addr, state, p.Lag, p.Acked, p.CatchupBlocks, p.Resets)
	}
	if st.Promotions+st.Demotions+st.QuorumTimeouts+st.QuorumRefusals > 0 {
		fmt.Printf("history: %d promotions, %d demotions, %d quorum timeouts, %d refusals\n",
			st.Promotions, st.Demotions, st.QuorumTimeouts, st.QuorumRefusals)
	}
}

// runPromote tells the follower at addr to become the leader (used after
// the leader host is lost; promote the replica with the highest applied
// position — compare with `clio status`).
func runPromote(addr string) {
	if addr == "" {
		fatal(fmt.Errorf("promote requires -addr"))
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	if err := server.WriteFrame(conn, wire.OpPromote, 0, 0, nil); err != nil {
		fatal(err)
	}
	status, _, _, payload, err := server.ReadFrame(conn)
	if err != nil {
		fatal(err)
	}
	r := wire.NewReader(payload, wire.ErrShortBuffer)
	if status != server.StatusOK {
		msg := r.String()
		if r.Err() != nil {
			msg = "refused"
		}
		fatal(fmt.Errorf("promote %s: %s", addr, msg))
	}
	term := r.Uint64()
	if r.Err() != nil {
		fatal(r.Err())
	}
	fmt.Printf("%s promoted to leader, term %d\n", addr, term)
}

// connect returns a client either over TCP or over a net.Pipe to an
// in-process server on a local store.
func connect(addr, store, tenant, token string) (*client.Client, func(), error) {
	switch {
	case addr != "" && store != "":
		return nil, nil, fmt.Errorf("clio: -addr and -store are mutually exclusive")
	case addr != "":
		cl, err := client.DialOptions(addr, client.Options{Tenant: tenant, Token: token})
		if err != nil {
			return nil, nil, err
		}
		return cl, func() { cl.Close() }, nil
	case store != "":
		st, err := clio.OpenStore(store, clio.DirOptions{})
		if err != nil {
			return nil, nil, err
		}
		srv := server.NewStore(st)
		// A dialer (rather than a single pipe) so Watch — which runs each
		// subscription on a dedicated connection — works in-process too.
		dialer := func(ctx context.Context) (net.Conn, error) {
			cConn, sConn := net.Pipe()
			go srv.ServeConn(sConn)
			return cConn, nil
		}
		cl, err := client.DialContext(context.Background(), "", client.Options{Dialer: dialer})
		if err != nil {
			srv.Close()
			st.Close()
			return nil, nil, err
		}
		return cl, func() {
			cl.Close()
			srv.Close()
			st.Close()
		}, nil
	default:
		return nil, nil, fmt.Errorf("clio: one of -addr or -store is required")
	}
}

func dump(ctx context.Context, cur clio.LogCursor, limit int) {
	for i := 0; limit < 0 || i < limit; i++ {
		e, err := cur.Next(ctx)
		if err == io.EOF {
			return
		}
		if err != nil {
			fatal(err)
		}
		printEntry(e)
	}
}

func printEntry(e *client.Entry) {
	ts := time.Unix(0, e.Timestamp).Format(time.RFC3339Nano)
	fmt.Printf("[%s #%s.%d] %s\n", ts, strconv.Itoa(e.Block), e.Index, e.Data)
}

// runFsck scrubs a local store's media, one shard (one volume sequence) at a
// time.
func runFsck(store string, args []string) {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "invalidate damaged blocks on the medium")
	_ = fs.Parse(args)
	if store == "" {
		fatal(fmt.Errorf("fsck requires -store"))
	}
	shards, err := scrubStore(store, scrub.Options{Repair: *repair})
	if err != nil {
		fatal(err)
	}
	var total scrub.Report
	for i, rep := range shards {
		if len(shards) > 1 {
			fmt.Printf("shard %d: %d data blocks, %d records, %d problems\n",
				i, rep.Blocks, rep.Entries, len(rep.Problems))
			for _, p := range rep.Problems {
				fmt.Printf("shard %d problem: %s\n", i, p)
			}
		} else {
			for _, p := range rep.Problems {
				fmt.Printf("problem: %s\n", p)
			}
		}
		total.Blocks += rep.Blocks
		total.Readable += rep.Readable
		total.Invalidated += rep.Invalidated
		total.Damaged += rep.Damaged
		total.Repaired += rep.Repaired
		total.Entries += rep.Entries
		total.EntrymapEntries += rep.EntrymapEntries
		total.CatalogRecords += rep.CatalogRecords
		total.Problems = append(total.Problems, rep.Problems...)
	}
	fmt.Printf("scrubbed %d data blocks: %d readable, %d invalidated, %d damaged",
		total.Blocks, total.Readable, total.Invalidated, total.Damaged)
	if *repair {
		fmt.Printf(", %d repaired", total.Repaired)
	}
	fmt.Printf("\n%d records, %d entrymap entries verified, %d catalog records\n",
		total.Entries, total.EntrymapEntries, total.CatalogRecords)
	if !total.Clean() {
		os.Exit(1)
	}
	fmt.Println("clean")
}

// shardScrub is one shard's scrub report plus its bytes on each tier: hot is
// the local volume files (the bounded working set the compactor maintains),
// cold the demoted volume images in the shard's cold archive.
type shardScrub struct {
	*scrub.Report
	hot, cold int64
}

// scrubStore scrubs every shard of a local store, opened the way the daemon
// opens it (clio.OpenRaw: the store's own geometry and layout). Each shard's
// sequence includes the demoted volumes restored from its cold archive — a
// demoted volume's only copy is its cold image, and fsck must cover the
// whole physical history.
func scrubStore(store string, opt scrub.Options) ([]shardScrub, error) {
	raw, err := clio.OpenRaw(store, clio.DirOptions{}, false)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	out := make([]shardScrub, len(raw.Devices))
	for i, hot := range raw.Devices {
		all, cold, err := withColdDevices(raw.Cold[i], hot)
		if err != nil {
			return nil, err
		}
		rep, err := scrub.Volumes(all, opt)
		if err != nil {
			return nil, err
		}
		out[i] = shardScrub{rep, deviceBytes(hot), deviceBytes(cold)}
	}
	return out, nil
}

// withColdDevices restores the volume images of a shard's cold archive and
// returns them (cold) and the shard's whole sequence (all): the hot devices
// plus the restored ones they do not already cover, deduped by volume index
// — a crash between archiving and releasing can leave a volume both local
// and cold, and the local copy wins.
func withColdDevices(be archive.Backend, hot []wodev.Device) (all, cold []wodev.Device, err error) {
	cold, err = archive.Restore(context.Background(), be)
	if errors.Is(err, archive.ErrNotArchive) {
		return hot, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[uint32]bool)
	for _, d := range append(hot[:len(hot):len(hot)], cold...) {
		hdr, err := volume.ReadHeader(d)
		if err != nil {
			return nil, nil, err
		}
		if !seen[hdr.Index] {
			seen[hdr.Index] = true
			all = append(all, d)
		}
	}
	return all, cold, nil
}

// deviceBytes sums the written extent of devs.
func deviceBytes(devs []wodev.Device) (n int64) {
	for _, d := range devs {
		n += int64(d.Written()) * int64(d.BlockSize())
	}
	return n
}

// runDu prints per-log-file space usage for a local store, then the hot
// versus cold byte split per shard.
func runDu(store string) {
	if store == "" {
		fatal(fmt.Errorf("du requires -store"))
	}
	shards, err := scrubStore(store, scrub.Options{})
	if err != nil {
		fatal(err)
	}
	var usage []scrub.LogUsage
	for _, sh := range shards {
		usage = append(usage, sh.Usage...)
	}
	sort.Slice(usage, func(i, j int) bool { return usage[i].Path < usage[j].Path })
	fmt.Printf("%10s %10s  %s\n", "entries", "bytes", "log file")
	for _, u := range usage {
		fmt.Printf("%10d %10d  %s\n", u.Entries, u.Bytes, u.Path)
	}
	var totalHot, totalCold int64
	for i, sh := range shards {
		totalHot += sh.hot
		totalCold += sh.cold
		if len(shards) > 1 {
			fmt.Printf("shard %d: %d bytes hot, %d bytes cold\n", i, sh.hot, sh.cold)
		}
	}
	fmt.Printf("total: %d bytes hot, %d bytes cold\n", totalHot, totalCold)
}

// runCompact runs one offline compaction pass over a local store: every
// shard copies the live entries of its mostly-dead sealed volumes forward,
// demotes the emptied volumes to its cold archive, and deletes the local
// volume files — the reclamation act itself.
func runCompact(store string, args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	maxLive := fs.Float64("max-live", 0, "max fraction of live blocks for a volume to be compacted (0 = default 0.5)")
	minHot := fs.Int("min-hot", 0, "minimum volumes kept mounted per shard (0 = default 2)")
	maxVols := fs.Int("max-volumes", 0, "cap on volumes compacted per shard (0 = no cap)")
	_ = fs.Parse(args)
	if store == "" {
		fatal(fmt.Errorf("compact requires -store"))
	}
	st, err := clio.OpenStore(store, clio.DirOptions{})
	if err != nil {
		fatal(err)
	}
	res, cerr := st.CompactOnce(context.Background(), clio.CompactOptions{
		MaxLiveFraction: *maxLive,
		MinHotVolumes:   *minHot,
		MaxVolumes:      *maxVols,
	})
	if err := st.Close(); err != nil {
		fatal(err)
	}
	if cerr != nil {
		fatal(cerr)
	}
	fmt.Printf("examined %d volumes: %d left hot (dense), %d relocated (%d entries, %d bytes), %d demoted cold\n",
		res.VolumesExamined, res.VolumesSkipped, res.VolumesReloc,
		res.EntriesCopied, res.BytesCopied, res.VolumesDemoted)
}

// runBackup incrementally archives a local store's volumes (§1: only the
// tail written since the last run is copied).
func runBackup(store, archiveDir string) {
	if store == "" {
		fatal(fmt.Errorf("backup requires -store"))
	}
	total, sidecars, err := backupStore(context.Background(), store, archiveDir)
	if err != nil {
		fatal(err)
	}
	if sidecars > 0 {
		fmt.Printf("captured the staged NVRAM state (%d sidecars, one per shard)\n", sidecars)
	}
	fmt.Printf("backed up %d volumes: %d blocks copied, %d already archived, %d cold volumes adopted\n",
		total.VolumesSeen, total.BlocksCopied, total.BlocksSkipped, total.ColdVolumes)
}

// backupStore archives every shard of a local store: its volumes
// (incrementally), the demoted volumes of its cold tier — they exist locally
// only as images in the cold archive, and adopting them gives the backup the
// complete sequence — and its NVRAM sidecar, the one file holding whatever it
// has staged; the count of those is returned. The
// archive mirrors the store layout: one subdirectory per shard, named as the
// store names it, for a sharded store, a flat archive otherwise.
func backupStore(ctx context.Context, store, archiveDir string) (total archive.Result, sidecars int, err error) {
	raw, err := clio.OpenRaw(store, clio.DirOptions{}, false)
	if err != nil {
		return total, 0, err
	}
	defer raw.Close()
	for i, devs := range raw.Devices {
		dst := archiveDir
		if len(raw.Dirs) > 1 {
			dst = filepath.Join(archiveDir, filepath.Base(raw.Dirs[i]))
		}
		be := archive.NewDir(dst)
		res, err := archive.Backup(ctx, devs, be)
		if err != nil {
			return total, sidecars, err
		}
		vols, _, err := archive.Adopt(ctx, be, raw.Cold[i])
		if err != nil {
			return total, sidecars, err
		}
		total.ColdVolumes += vols
		copied, err := raw.NVRAMs[i].(*core.FileNVRAM).CopyTo(dst)
		if err != nil {
			return total, sidecars, err
		}
		if copied {
			sidecars++
		}
		total.VolumesSeen += res.VolumesSeen
		total.BlocksCopied += res.BlocksCopied
		total.BlocksSkipped += res.BlocksSkipped
	}
	return total, sidecars, nil
}

// runVerifyBackup restores an archive in memory and scrubs it, one
// shard's volume sequence at a time.
func runVerifyBackup(archiveDir string) {
	dirs, err := clio.ShardDirs(archiveDir)
	if err != nil {
		fatal(err)
	}
	clean := true
	var blocks, entries, catalog int
	for i, d := range dirs {
		devs, err := archive.Restore(context.Background(), archive.NewDir(d))
		if err != nil {
			fatal(err)
		}
		rep, err := scrub.Volumes(devs, scrub.Options{})
		if err != nil {
			fatal(err)
		}
		for _, p := range rep.Problems {
			if len(dirs) > 1 {
				fmt.Printf("shard %d problem: %s\n", i, p)
			} else {
				fmt.Printf("problem: %s\n", p)
			}
		}
		clean = clean && rep.Clean()
		blocks += rep.Blocks
		entries += rep.Entries
		catalog += rep.CatalogRecords
	}
	fmt.Printf("archive holds %d data blocks, %d records, %d catalog records\n",
		blocks, entries, catalog)
	if !clean {
		os.Exit(1)
	}
	fmt.Println("clean")
}

func need(args []string, n int) {
	if len(args) != n {
		usage()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "clio: %v\n", err)
	os.Exit(1)
}
