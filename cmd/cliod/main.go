// Command cliod runs the Clio log server: it opens (or creates) a
// file-backed log store and serves the log-file protocol over TCP — the
// stand-alone deployment of the paper's extended file server.
//
// Usage:
//
//	cliod -store /var/lib/clio [-config /etc/clio.conf] [-listen :7846]
//	      [-create [-shards N] [-volume-blocks N] [-block-size N]]
//	      [-checkpoint-interval N]
//	      [-admin :7847] [-slow-trace 100ms]
//	      [-compact-interval 0] [-compact-max-live 0.5] [-compact-min-hot 2]
//	      [-drain-timeout 30s]
//
// Configuration is layered: built-in defaults, then the -config file (flat
// key=value lines using the flag spellings), then CLIO_* environment
// variables (CLIO_LISTEN, CLIO_STORE, ...), then explicit flags — later
// layers win. Tenants are declared in the config file only:
//
//	tenant.acme.token = s3cret
//	tenant.acme.max-logs = 1000
//	tenant.acme.max-bytes = 1073741824
//	tenant.acme.max-sessions = 64
//
// With one or more tenants configured the daemon is multi-tenant: sessions
// must authenticate (clio -tenant acme -token s3cret), each tenant's log
// files live under /<name>, and quota-exceeded requests fail with a typed
// status instead of silently dropping. Without tenants the daemon runs open,
// exactly as before.
//
// Lifecycle: SIGHUP re-reads the config layers and applies the reloadable
// keys (tenant table, slow-trace, compaction knobs, drain-timeout) without
// dropping sessions; non-reloadable changes are logged as needing a restart.
// SIGTERM/SIGINT drains: listeners close, in-flight requests and group
// commits finish (bounded by -drain-timeout), stream subscriptions end with
// a final frame, then the store closes cleanly. A second signal forces
// immediate exit.
//
// The commit path has no knob: forced appends group-commit behind a gather
// window sized from the observed arrival rate and commit latency (a lone
// writer never waits), and because the store's NVRAM sidecar can stage
// sealed blocks, full-block device writes are pipelined behind the ack. A
// cluster leader (-peers) seals synchronously instead: its replication tap
// forwards only the tail store, because under replication the inline seal
// was measured at ~0.4 µs per force, less than staging it would cost (see
// cluster.tapNVRAM). A leftover
// force-window setting — flag, clio.conf line or CLIO_FORCE_WINDOW — is
// refused at startup rather than ignored.
//
// -compact-interval enables background space reclamation: every interval,
// each shard copies the live entries of mostly-dead sealed volumes forward,
// demotes the emptied volumes to its cold archive (a directory beside the
// shard's volume files) and deletes the local volume files, keeping hot
// storage bounded while reads of demoted blocks transparently fetch from the
// archive. -compact-max-live caps the live fraction a volume may have and
// still be compacted; -compact-min-hot is the floor of volumes kept mounted
// per shard. 0 disables the loop (`clio compact` still works offline).
//
// A 1-shard store holds one file per log volume plus the NVRAM sidecar that
// stages the current partial block across restarts (§2.3.1). -create
// -shards N lays the store out as N hash-partitioned volume sequences (one
// subdirectory per shard, each with its own NVRAM sidecar) behind one
// namespace. The store records its geometry — -shards, -volume-blocks,
// -block-size — in a manifest when it is created (clio.DirOptions; DESIGN.md
// "Store manifest"): the three are -create flags, a reopen needs none of
// them, and one given anyway is asserted, a contradicting value refused.
//
// -admin starts an HTTP endpoint serving /metrics (Prometheus text format),
// /statusz (JSON: volumes, tail state, session and tenant tables), /tracez
// (recent and slow request traces) and /debug/pprof. Requests slower than
// -slow-trace are captured with their per-layer spans (server dispatch,
// group commit, device write).
//
// Replicated cluster mode — -peers switches the node into per-shard
// leader/follower replication:
//
//	cliod -store /var/lib/clio -listen :7846 -create \
//	      -peers b:7846,c:7846 -advertise a:7846 -role leader [-quorum 2]
//
// The leader orders every append through its group-commit path and acks a
// forced append only after a quorum of replicas has durably staged it;
// followers serve reads of sealed history and redirect writes to the
// leader. `clio promote` turns a follower into the leader after a failure;
// `clio status` shows each node's role, term and replication lag. In
// cluster mode /statusz gains a "cluster" section and /metrics the
// clio_cluster_* instruments. Volume allocation is disabled (capacity is
// the initial volume), background compaction is rejected (the compactor
// deletes volume files a replica must mirror exactly), and shutdown never
// seals the staged tail — a replica must not write blocks its leader did
// not order. Tenants and -slow-trace apply to the leader's embedded server.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"clio"
	"clio/internal/cluster"
	"clio/internal/config"
	"clio/internal/obs"
	"clio/internal/server"
)

// buildConfig merges the config layers in order — defaults, file,
// environment, flags — and validates the result. It is re-run verbatim on
// SIGHUP, so a reload sees exactly what a restart would.
func buildConfig(confPath string) (*config.Config, error) {
	cfg := config.Default()
	if confPath != "" {
		if err := cfg.LoadFile(confPath); err != nil {
			return nil, err
		}
	}
	if err := cfg.ApplyEnv(os.LookupEnv); err != nil {
		return nil, err
	}
	var ferr error
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "config" || ferr != nil {
			return
		}
		ferr = cfg.Set(f.Name, f.Value.String())
	})
	if ferr != nil {
		return nil, ferr
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// serverTenants converts the config's tenant table to the server's shape.
func serverTenants(cfg *config.Config) []server.Tenant {
	var out []server.Tenant
	for _, t := range cfg.TenantList() {
		out = append(out, server.Tenant{
			Name: t.Name, Token: t.Token,
			MaxLogs: t.MaxLogs, MaxBytes: t.MaxBytes, MaxSessions: t.MaxSessions,
		})
	}
	return out
}

// reloadable is the subset of live daemon state a SIGHUP may retune.
type reloadable struct {
	tracer          *obs.Tracer // nil without -admin
	drainTimeout    atomic.Int64
	compactInterval atomic.Int64
	compactMaxLive  atomic.Uint64 // float64 bits
	compactMinHot   atomic.Int64
	compactPoke     chan struct{} // nil in cluster mode
	setTenants      func([]server.Tenant)
}

func (r *reloadable) apply(cfg *config.Config) {
	r.drainTimeout.Store(int64(cfg.DrainTimeout))
	r.compactInterval.Store(int64(cfg.CompactInterval))
	r.compactMaxLive.Store(math.Float64bits(cfg.CompactMaxLive))
	r.compactMinHot.Store(int64(cfg.CompactMinHot))
	r.tracer.SetSlowThreshold(cfg.SlowTrace)
	if r.setTenants != nil {
		r.setTenants(serverTenants(cfg))
	}
	if r.compactPoke != nil {
		select {
		case r.compactPoke <- struct{}{}:
		default:
		}
	}
}

// reload re-merges the config layers and applies what may change at
// runtime, warning about the rest. The old config stays in force when the
// new one fails to load or validate — a broken edit must not take down a
// running daemon.
func reload(confPath string, cur *config.Config, r *reloadable) *config.Config {
	next, err := buildConfig(confPath)
	if err != nil {
		log.Printf("cliod: reload rejected, keeping previous config: %v", err)
		return cur
	}
	changed := cur.Diff(next)
	if len(changed) == 0 {
		log.Print("cliod: reload: no changes")
		return cur
	}
	applied := changed[:0:0]
	for _, key := range changed {
		if key == "tenants" || config.Reloadable(key) {
			applied = append(applied, key)
		} else {
			log.Printf("cliod: reload: %s changed but needs a restart to apply", key)
		}
	}
	if len(applied) > 0 {
		r.apply(next)
		log.Printf("cliod: reloaded: %s", strings.Join(applied, ", "))
	}
	return next
}

// adminTracer is the request tracer behind /tracez; nil without -admin.
func adminTracer(cfg *config.Config) *obs.Tracer {
	if cfg.Admin == "" {
		return nil
	}
	return obs.NewTracer(256, cfg.SlowTrace)
}

// startAdmin serves the admin endpoint on addr — /metrics over a registry
// that register and the process metrics fill, /statusz from status, /tracez
// from tracer, /debug/pprof — and returns what shuts it down. Both do nothing
// when addr is empty (no -admin).
func startAdmin(addr string, tracer *obs.Tracer, register func(*obs.Registry), status func() any) (shutdown func(context.Context)) {
	if addr == "" {
		return func(context.Context) {}
	}
	reg := obs.NewRegistry()
	register(reg)
	obs.RegisterProcessMetrics(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("cliod: admin listen: %v", err)
	}
	log.Printf("cliod: admin on http://%s", ln.Addr())
	srv := &http.Server{Handler: obs.NewAdminMux(reg, tracer, status)}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("cliod: admin: %v", err)
		}
	}()
	return func(ctx context.Context) { srv.Shutdown(ctx) }
}

func main() {
	confPath := flag.String("config", "", "config file (flat key=value lines; flags and CLIO_* env override it)")
	config.RegisterFlags(flag.CommandLine)
	flag.Parse()

	cfg, err := buildConfig(*confPath)
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}

	// Registered before the store opens: a signal during startup is held in
	// the buffer (2 deep: one drain trigger plus one force-exit) until the
	// lifecycle goroutine drains it, never the runtime's default action.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)

	// The geometry keys default to zero: the store's own once it exists (its
	// manifest records it), the library's defaults with -create.
	opts := clio.DirOptions{VolumeBlocks: cfg.VolumeBlocks, SyncEvery: cfg.Sync, Shards: cfg.Shards}
	opts.BlockSize = cfg.BlockSize
	opts.CheckpointInterval = cfg.CheckpointInterval
	if cfg.Peers != "" {
		runCluster(cfg, *confPath, opts, sig)
		return
	}
	var st *clio.Store
	if cfg.Create {
		st, err = clio.CreateStore(cfg.Store, opts)
	} else {
		st, err = clio.OpenStore(cfg.Store, opts)
	}
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}
	rep := st.LastRecovery()
	log.Printf("cliod: store %s open: %d shards, %d data blocks, %d catalog records, tails restored=%d, checkpoints used=%d/%d",
		cfg.Store, st.Shards(), rep.SealedBlocks, rep.CatalogEntries, rep.TailsRestored, rep.CheckpointsUsed, st.Shards())
	if rep.VolumesRelocated > 0 || rep.VolumesDemoted > 0 {
		log.Printf("cliod: compaction state: %d volumes relocated, %d demoted cold", rep.VolumesRelocated, rep.VolumesDemoted)
	}

	srv := server.NewStore(st)
	srv.Logf = log.Printf
	if tenants := serverTenants(cfg); len(tenants) > 0 {
		srv.SetTenants(tenants)
		log.Printf("cliod: multi-tenant: %d tenants configured", len(tenants))
	}

	rl := &reloadable{compactPoke: make(chan struct{}, 1), setTenants: srv.SetTenants}

	// Background reclamation: one compaction pass across every shard per
	// tick. CompactOnce serializes with itself per shard, and a pass only
	// examines volumes present when it starts, so a slow pass simply delays
	// the next tick rather than piling up. The loop re-reads its knobs from
	// rl each round, so a SIGHUP can retune, enable or disable it live.
	compactCtx, stopCompactLoop := context.WithCancel(context.Background())
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		for {
			var tick <-chan time.Time
			var timer *time.Timer
			if iv := time.Duration(rl.compactInterval.Load()); iv > 0 {
				timer = time.NewTimer(iv)
				tick = timer.C
			}
			select {
			case <-compactCtx.Done():
				if timer != nil {
					timer.Stop()
				}
				return
			case <-rl.compactPoke:
				if timer != nil {
					timer.Stop()
				}
				continue
			case <-tick:
			}
			copt := clio.CompactOptions{
				MaxLiveFraction: math.Float64frombits(rl.compactMaxLive.Load()),
				MinHotVolumes:   int(rl.compactMinHot.Load()),
			}
			res, err := st.CompactOnce(compactCtx, copt)
			if err != nil {
				log.Printf("cliod: compact: %v", err)
			}
			if res.VolumesReloc > 0 || res.VolumesDemoted > 0 {
				log.Printf("cliod: compacted %d volumes (%d entries, %d bytes relocated), %d demoted cold",
					res.VolumesReloc, res.EntriesCopied, res.BytesCopied, res.VolumesDemoted)
			}
		}
	}()
	if cfg.CompactInterval > 0 {
		log.Printf("cliod: background compaction every %s", cfg.CompactInterval)
	}

	srv.Tracer = adminTracer(cfg)
	rl.tracer = srv.Tracer
	stopAdmin := startAdmin(cfg.Admin, srv.Tracer, func(reg *obs.Registry) {
		st.RegisterMetrics(reg)
		st.RegisterStreamMetrics(reg)
		srv.RegisterMetrics(reg)
	}, func() any {
		return map[string]any{
			"shards": st.Status(),
			"server": srv.Status(),
		}
	})
	rl.apply(cfg)

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		log.Fatalf("cliod: listen: %v", err)
	}
	log.Printf("cliod: serving on %s", ln.Addr())

	// Lifecycle: SIGHUP reloads, the first TERM/INT starts a bounded
	// graceful drain, a second one forces immediate exit.
	var draining atomic.Bool
	drained := make(chan struct{})
	go func() {
		for s := range sig {
			if s == syscall.SIGHUP {
				cfg = reload(*confPath, cfg, rl)
				continue
			}
			if draining.Swap(true) {
				log.Printf("cliod: %s during drain, exiting immediately", s)
				os.Exit(1)
			}
			dt := time.Duration(rl.drainTimeout.Load())
			log.Printf("cliod: %s: draining (in-flight requests get up to %s)", s, dt)
			go func() {
				defer close(drained)
				ctx, cancel := context.WithTimeout(context.Background(), dt)
				defer cancel()
				stopAdmin(ctx)
				if err := srv.Shutdown(ctx); err != nil {
					log.Printf("cliod: drain incomplete after %s, closing remaining connections: %v", dt, err)
				}
			}()
		}
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, server.ErrServerClosed) {
		log.Printf("cliod: serve: %v", err)
	}
	if draining.Load() {
		<-drained
	}
	stopCompactLoop()
	<-compactDone
	if err := st.Close(); err != nil {
		log.Printf("cliod: close: %v", err)
	}
	log.Print("cliod: store closed, exiting")
}

// runCluster runs the node as a replication cluster member: the store is
// opened as raw devices (a follower holds media its leader writes; only a
// leader — initial or promoted — mounts a service over them).
func runCluster(cfg *config.Config, confPath string, opts clio.DirOptions, sig chan os.Signal) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		log.Fatalf("cliod: listen: %v", err)
	}
	advertise := cfg.Advertise
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	// -create provisions this node's volume files whatever its role; only
	// the leader formats store metadata — a follower's media is written
	// solely by replication so it mirrors the leader's ordering exactly.
	raw, err := clio.OpenRaw(cfg.Store, opts, cfg.Create)
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}
	tracer := adminTracer(cfg)
	node, err := cluster.New(cluster.Config{
		NodeID:  advertise,
		Peers:   strings.Split(cfg.Peers, ","),
		Quorum:  cfg.Quorum,
		Devices: raw.Devices,
		NVRAMs:  raw.NVRAMs,
		Opts:    raw.Opts,
		Create:  cfg.Create && cfg.Role == "leader",
		// Persist term arbitration next to the store: a restarted node must
		// remember the highest term it has seen, or a stale leader could be
		// mistaken for the legitimate one after a full-cluster restart.
		TermPath: raw.TermPath,
		Reset:    raw.Reset,
		Logf:     log.Printf,
		Tracer:   tracer,
		Tenants:  serverTenants(cfg),
	})
	if err != nil {
		log.Fatalf("cliod: %v", err)
	}
	if err := node.Start(cfg.Role == "leader"); err != nil {
		log.Fatalf("cliod: %v", err)
	}
	if cfg.Role == "leader" {
		if rep, ok := node.PromotionRecovery(); ok {
			log.Printf("cliod: store %s recovered: %d data blocks, %d replayed past checkpoints, %d tails restored",
				cfg.Store, rep.SealedBlocks, rep.BlocksReplayed, rep.TailsRestored)
		}
	}
	stopAdmin := startAdmin(cfg.Admin, tracer, node.RegisterMetrics, func() any {
		s := map[string]any{"cluster": node.Status()}
		if st := node.Store(); st != nil {
			s["shards"] = st.Status()
		}
		return s
	})
	rl := &reloadable{tracer: tracer, setTenants: node.SetTenants}
	rl.apply(cfg)
	var stopping atomic.Bool
	go func() {
		for s := range sig {
			if s == syscall.SIGHUP {
				cfg = reload(confPath, cfg, rl)
				continue
			}
			if stopping.Swap(true) {
				log.Printf("cliod: %s during shutdown, exiting immediately", s)
				os.Exit(1)
			}
			// A replica stops rather than drains: every acked mutation is
			// already quorum-staged, and the media must stay exactly as the
			// leader ordered it. Handing leadership off is `clio promote`'s
			// job, not SIGTERM's.
			log.Printf("cliod: %s: shutting down (replica media stays exactly as ordered)", s)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			stopAdmin(ctx)
			cancel()
			node.Kill()
		}
	}()
	log.Printf("cliod: %s serving as cluster %s on %s (peers %s, quorum %d)",
		advertise, cfg.Role, ln.Addr(), cfg.Peers, cfg.Quorum)
	if err := node.Serve(ln); err != nil && !stopping.Load() {
		log.Printf("cliod: serve: %v", err)
	}
}
