package server

import (
	"context"
	"crypto/subtle"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/shard"
)

// Tenant is one tenant's declaration: a top-level namespace (log files under
// /<Name>), the shared secret its sessions present in OpHello, and its
// quotas. A zero quota is unlimited.
//
// The tenant boundary is the same unit the partitioner routes by — the root
// path segment (shard.RootSegment) — so tenancy adds no second namespace
// scheme: a tenant's logs hash to shards exactly as before, and a tenant
// session may only touch paths whose root segment is its own name (plus its
// own consumer-group state, see allowsPath).
type Tenant struct {
	Name  string
	Token string
	// MaxLogs bounds the log files under the tenant's namespace. Existing
	// logs are counted when the tenant's first session binds; retired logs
	// still count (write-once storage — a retired log's entries remain).
	MaxLogs int64
	// MaxBytes bounds the entry bytes the tenant may append over this
	// daemon's lifetime. It is an append budget, not a stored-bytes gauge:
	// accounting restarts with the daemon.
	MaxBytes int64
	// MaxSessions bounds the tenant's concurrently authenticated
	// connections.
	MaxSessions int64
}

// tenantState is the server's live accounting for one tenant. The config is
// an atomic pointer so a SIGHUP reload retunes quotas and rotates tokens
// under live traffic; the usage counters survive reloads (SetTenants reuses
// the state for a tenant that stays configured).
type tenantState struct {
	name string
	cfg  atomic.Pointer[Tenant]

	sessions atomic.Int64 // concurrently authenticated connections
	logs     atomic.Int64 // log files under /<name> (seeded + created)
	bytes    atomic.Int64 // entry bytes appended since daemon start

	// seedOnce counts the logs already under the namespace the first time a
	// session binds. Only authenticated sessions of this tenant can create
	// under the root afterwards, and binding completes only after the seed,
	// so the count cannot miss a create.
	seedOnce sync.Once

	met atomic.Pointer[tenantMetrics]
}

// tenantMetrics is one tenant's registered instrument set.
type tenantMetrics struct {
	requests *obs.Counter
	bytes    *obs.Counter
	quota    map[string]*obs.Counter // keyed by quota name: logs, bytes, sessions
}

// quotaError names the tenant and quota a refused request ran into; errReply
// renders it as StatusQuotaExceeded.
type quotaError struct {
	tenant string
	quota  string
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("tenant %s over %s quota", e.tenant, e.quota)
}

// SetTenants installs (or on SIGHUP, replaces) the tenant table. States are
// reused by name, so usage counters — sessions held, bytes appended, logs
// counted — carry across a reload; only the declarations (tokens, quotas)
// swap. An empty table returns the server to open (unauthenticated) mode.
// Sessions of a tenant removed from the table keep their binding until they
// disconnect; new hellos for it fail.
func (s *Server) SetTenants(list []Tenant) {
	old := s.tenants.Load()
	next := make(map[string]*tenantState, len(list))
	for _, t := range list {
		t := t
		var ts *tenantState
		if old != nil {
			ts = (*old)[t.Name]
		}
		if ts == nil {
			ts = &tenantState{name: t.Name}
		}
		ts.cfg.Store(&t)
		if reg := s.obsReg.Load(); reg != nil {
			ts.register(reg)
		}
		next[t.Name] = ts
	}
	s.tenants.Store(&next)
}

// tenanted reports whether the server enforces tenancy: with no tenants
// configured every connection is the implicit single tenant (the
// pre-tenancy behavior, and what every existing test exercises).
func (s *Server) tenanted() bool {
	m := s.tenants.Load()
	return m != nil && len(*m) > 0
}

// register creates the tenant's metric series. Idempotent (the registry
// dedupes by name+labels, and met is only stored once).
func (ts *tenantState) register(reg *obs.Registry) {
	if ts.met.Load() != nil {
		return
	}
	l := obs.L("tenant", ts.name)
	m := &tenantMetrics{
		requests: reg.Counter("clio_tenant_requests_total",
			"Requests dispatched for the tenant's sessions.", l),
		bytes: reg.Counter("clio_tenant_bytes_appended_total",
			"Entry bytes successfully appended by the tenant.", l),
		quota: map[string]*obs.Counter{},
	}
	for _, q := range []string{"logs", "bytes", "sessions"} {
		m.quota[q] = reg.Counter("clio_tenant_quota_exceeded_total",
			"Requests refused with StatusQuotaExceeded, by quota.", l, obs.L("quota", q))
	}
	reg.GaugeFunc("clio_tenant_sessions",
		"Currently authenticated connections of the tenant.",
		func() int64 { return ts.sessions.Load() }, l)
	reg.GaugeFunc("clio_tenant_logs",
		"Log files under the tenant's namespace.",
		func() int64 { return ts.logs.Load() }, l)
	ts.met.Store(m)
}

// countQuota records a refusal in the tenant's quota counter.
func (ts *tenantState) countQuota(quota string) {
	if m := ts.met.Load(); m != nil {
		m.quota[quota].Inc()
	}
}

// bindTenant authenticates a hello's credentials and, on success, takes one
// session slot. The caller owns the slot and must release it (releaseSession)
// at connection teardown.
func (s *Server) bindTenant(name, token string) (*tenantState, error) {
	m := s.tenants.Load()
	if m == nil || len(*m) == 0 {
		if name != "" {
			return nil, fmt.Errorf("server: no tenants configured")
		}
		return nil, nil
	}
	if name == "" {
		return nil, fmt.Errorf("server: tenant credentials required")
	}
	ts := (*m)[name]
	if ts == nil {
		// Compare against a dummy anyway so a probe cannot time-split
		// "unknown tenant" from "wrong token".
		subtle.ConstantTimeCompare([]byte(token), []byte(token))
		return nil, fmt.Errorf("server: tenant authentication failed")
	}
	cfg := ts.cfg.Load()
	if subtle.ConstantTimeCompare([]byte(cfg.Token), []byte(token)) != 1 {
		return nil, fmt.Errorf("server: tenant authentication failed")
	}
	// Count the namespace's existing logs before the first session finishes
	// binding, so the log quota starts from reality, not zero.
	ts.seedOnce.Do(func() { ts.logs.Store(countLogs(s.store, "/"+ts.name)) })
	for {
		cur := ts.sessions.Load()
		cfg := ts.cfg.Load()
		if cfg.MaxSessions > 0 && cur >= cfg.MaxSessions {
			ts.countQuota("sessions")
			return nil, &quotaError{tenant: ts.name, quota: "sessions"}
		}
		if ts.sessions.CompareAndSwap(cur, cur+1) {
			return ts, nil
		}
	}
}

// countLogs walks the namespace under path and counts its log files,
// including the namespace root itself when it exists.
func countLogs(st *shard.Store, path string) int64 {
	ctx := context.Background()
	if _, err := st.Resolve(ctx, path); err != nil {
		return 0
	}
	var n int64 = 1
	names, err := st.List(ctx, path)
	if err != nil {
		return n
	}
	for _, c := range names {
		n += countLogs(st, path+"/"+c)
	}
	return n
}

// offsetsSegment is the root segment of logapi.OffsetsRoot ("/.offsets").
var offsetsSegment = strings.TrimPrefix(logapi.OffsetsRoot, "/")

// allowsPath checks a path against the tenant's namespace: the tenant's own
// root segment, or its consumer-group state — the offsets log
// /.offsets/<group> of a group whose name, up to its first ".", is the
// tenant's name. Group state lives in a shared system namespace (group logs
// must hash by group, not by tenant), so the group name's first component
// is the isolation boundary there; tenant names carry no ".", so every
// group has at most one owner.
func (ts *tenantState) allowsPath(path string) error {
	seg, err := shard.RootSegment(path)
	if err != nil {
		return err
	}
	if seg == ts.name {
		return nil
	}
	if seg == offsetsSegment {
		group, _, _ := strings.Cut(strings.TrimPrefix(path, logapi.OffsetsRoot+"/"), "/")
		if owner, _, ok := strings.Cut(group, "."); ok && owner == ts.name {
			return nil
		}
	}
	return fmt.Errorf("server: path %q outside tenant %s namespace", path, ts.name)
}

// tenantGate enforces namespace and quota policy for one request before it
// executes; an error is the refusal. What it checks is the op's scope in
// opTable. A non-zero reserved means the gate took that much — the data
// length in bytes, or one log slot — out of the tenant's quota headroom in
// advance; dispatch settles the reservation against the op's outcome
// (settleTenant), so two racing appends cannot both squeeze through the last
// of a byte budget.
//
// Replication control ops (the 0x40 range) pass untouched: they carry no
// tenant path semantics and arrive from cluster peers, not tenant sessions.
func (h *connHandler) tenantGate(op byte, payload []byte) (ts *tenantState, reserved int64, err error) {
	if !h.srv.tenanted() || op >= 0x40 && op < 0x60 {
		return nil, 0, nil
	}
	info := &opTable[op]
	if ts = h.tenant; ts == nil {
		if info.preAuth {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("server: authentication required")
	}
	if m := ts.met.Load(); m != nil {
		m.requests.Inc()
	}
	r := newReader(payload)
	switch info.scope {
	case scopePath:
		path := r.String()
		if r.Err() != nil {
			return ts, 0, r.Err()
		}
		if op == OpCreate && path == logapi.OffsetsRoot {
			// The shared root of every group log: any tenant may create
			// it, and it counts toward no tenant's logs.
			return ts, 0, nil
		}
		if err := ts.allowsPath(path); err != nil {
			return ts, 0, err
		}
		if seg, _ := shard.RootSegment(path); info.settles == settlesLog && seg == ts.name {
			if err := ts.reserveLog(); err != nil {
				return ts, 0, err
			}
			reserved = 1
		}
	case scopeID, scopeIDList:
		nIDs := uint64(1)
		if info.scope == scopeIDList {
			if nIDs = r.Uvarint(); r.Err() != nil || nIDs == 0 || nIDs > 64 {
				// Malformed; let dispatch produce its canonical error.
				return ts, 0, nil
			}
		}
		ids := make([]logapi.ID, nIDs)
		for i := range ids {
			ids[i] = readID(r)
		}
		// The append tail: the flag byte, then the data length.
		r.Byte()
		size := r.Uvarint()
		if r.Err() != nil {
			return ts, 0, r.Err()
		}
		if size > uint64(r.Len()) {
			// Longer than the payload can back (and possibly past int64):
			// dispatch reports it; nothing is reserved for it.
			return ts, 0, nil
		}
		if err := h.checkIDs(ts, ids); err != nil {
			return ts, 0, err
		}
		if err := ts.reserveBytes(int64(size)); err != nil {
			return ts, 0, err
		}
		reserved = int64(size)
	}
	return ts, reserved, nil
}

// checkIDs attributes each store-wide id to its namespace.
func (h *connHandler) checkIDs(ts *tenantState, ids []logapi.ID) error {
	for _, id := range ids {
		path, err := h.srv.store.PathOf(id)
		if err != nil {
			return err
		}
		if err := ts.allowsPath(path); err != nil {
			return err
		}
	}
	return nil
}

// reserveLog takes one log slot from the quota, refusing at the limit.
func (ts *tenantState) reserveLog() error {
	for {
		cfg := ts.cfg.Load()
		cur := ts.logs.Load()
		if cfg.MaxLogs > 0 && cur >= cfg.MaxLogs {
			return &quotaError{tenant: ts.name, quota: "logs"}
		}
		if ts.logs.CompareAndSwap(cur, cur+1) {
			return nil
		}
	}
}

// reserveBytes takes n bytes from the append budget, refusing when the
// budget cannot cover them.
func (ts *tenantState) reserveBytes(n int64) error {
	for {
		cfg := ts.cfg.Load()
		cur := ts.bytes.Load()
		if cfg.MaxBytes > 0 && cur+n > cfg.MaxBytes {
			return &quotaError{tenant: ts.name, quota: "bytes"}
		}
		if ts.bytes.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// settleTenant settles a gate reservation against the op's outcome: a
// failed create returns its log slot, a failed append returns its bytes,
// and a successful append lands in the bytes-appended counter.
func settleTenant(ts *tenantState, what settles, reserved int64, status byte) {
	if ts == nil || reserved == 0 {
		return
	}
	ok := status == StatusOK || status == StatusDegraded
	switch {
	case what == settlesLog && !ok:
		ts.logs.Add(-reserved)
	case what == settlesBytes && !ok:
		ts.bytes.Add(-reserved)
	case what == settlesBytes:
		if m := ts.met.Load(); m != nil {
			m.bytes.Add(reserved)
		}
	}
}

// tenantEntry checks a position-addressed read (OpReadAt) after the fact:
// the entry's primary log id names the owning namespace. Multi-membership
// extras always share the primary's root segment (members of one entry live
// on one shard under one root), so the primary id decides.
func (h *connHandler) tenantEntry(shardN int, logID16 uint16) error {
	ts := h.tenant
	if ts == nil || !h.srv.tenanted() {
		return nil
	}
	path, err := h.srv.store.PathOf(logapi.MakeID(shardN, logID16))
	if err != nil {
		return err
	}
	return ts.allowsPath(path)
}
