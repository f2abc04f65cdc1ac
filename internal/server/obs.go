package server

import (
	"sort"

	"clio/internal/obs"
)

// serverMetrics holds the server's registered instruments. Requests index
// the per-op counter table directly by opcode, so the hot path performs no
// map lookup or allocation.
type serverMetrics struct {
	requests  [256]*obs.Counter // per-op; nil slots fall through to unknown
	unknown   *obs.Counter
	reqLat    *obs.Histogram
	dedupHits *obs.Counter
	// nextEntries counts entries returned by OpNext; over requests[OpNext]
	// it is the entries one round trip carries — the read-ahead the request
	// counter alone cannot show. Entries a fused OpSeekTime delivers count
	// in seekEntries, under their own op label, so that ratio stays what it
	// says.
	nextEntries, seekEntries *obs.Counter
}

// zeroServerMetrics is what met returns before RegisterMetrics: its
// instruments are all nil, and obs methods no-op on nil receivers, so
// un-instrumented servers record nothing without branching at every site.
var zeroServerMetrics serverMetrics

func (s *Server) met() *serverMetrics {
	if m := s.obsM.Load(); m != nil {
		return m
	}
	return &zeroServerMetrics
}

func (m *serverMetrics) countReq(op byte) {
	if m == nil {
		return
	}
	if c := m.requests[op]; c != nil {
		c.Inc()
		return
	}
	m.unknown.Inc()
}

// RegisterMetrics registers the server's request counters and latency
// histogram in reg and enables recording. Call once, before serving.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	m := &serverMetrics{
		unknown: reg.Counter("clio_server_requests_total",
			"Requests handled by the server, by operation.", obs.L("op", "unknown")),
		reqLat: reg.Histogram("clio_server_request_seconds",
			"Wall-clock latency of request handling, read to response written.", nil),
		dedupHits: reg.Counter("clio_server_dedup_hits_total",
			"Requests answered from the duplicate-suppression window without re-executing."),
	}
	const entriesHelp = "Entries delivered by cursor requests, by operation; op=\"next\" divided by clio_server_requests_total{op=\"next\"} is the entries per next round trip."
	m.nextEntries = reg.Counter("clio_server_cursor_entries_total", entriesHelp, obs.L("op", opName(OpNext)))
	m.seekEntries = reg.Counter("clio_server_cursor_entries_total", entriesHelp, obs.L("op", opName(OpSeekTime)))
	for op := range opTable {
		if name := opTable[op].name; name != "" {
			m.requests[op] = reg.Counter("clio_server_requests_total",
				"Requests handled by the server, by operation.", obs.L("op", name))
		}
	}
	reg.GaugeFunc("clio_server_connections",
		"Currently open client connections.", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.conns))
		})
	reg.GaugeFunc("clio_server_sessions",
		"Client sessions the server is holding state for.", func() int64 {
			s.Sessions.mu.Lock()
			defer s.Sessions.mu.Unlock()
			return int64(len(s.Sessions.m))
		})
	s.obsReg.Store(reg)
	// Tenants installed before the registry arrived register now; the two
	// calls are order-independent (registration is idempotent).
	if tm := s.tenants.Load(); tm != nil {
		for _, ts := range *tm {
			ts.register(reg)
		}
	}
	s.obsM.Store(m)
}

// SessionStatus is one session's row in the server status report.
type SessionStatus struct {
	ID      uint64 `json:"id"`
	MaxSeq  uint64 `json:"max_seq"`
	Cursors int    `json:"cursors"`
	Window  int    `json:"dedup_window"`
}

// TenantStatus is one tenant's row in the server status report: the live
// usage counters next to the configured limits (0 = unlimited).
type TenantStatus struct {
	Name        string `json:"name"`
	Sessions    int64  `json:"sessions"`
	MaxSessions int64  `json:"max_sessions,omitempty"`
	Logs        int64  `json:"logs"`
	MaxLogs     int64  `json:"max_logs,omitempty"`
	Bytes       int64  `json:"bytes_appended"`
	MaxBytes    int64  `json:"max_bytes,omitempty"`
}

// ServerStatus is the server section of /statusz.
type ServerStatus struct {
	Epoch    uint64          `json:"epoch"`
	Conns    int             `json:"connections"`
	Draining bool            `json:"draining,omitempty"`
	Sessions []SessionStatus `json:"sessions"`
	Tenants  []TenantStatus  `json:"tenants,omitempty"`
}

// Status reports the server's connection and session state for /statusz.
func (s *Server) Status() ServerStatus {
	s.mu.Lock()
	st := ServerStatus{Epoch: s.epoch, Conns: len(s.conns), Draining: s.draining.Load()}
	s.mu.Unlock()
	for _, ss := range s.Sessions.all() {
		ss.mu.Lock()
		st.Sessions = append(st.Sessions, SessionStatus{
			ID:      ss.id,
			MaxSeq:  ss.maxSeq,
			Cursors: len(ss.cursors),
			Window:  len(ss.window),
		})
		ss.mu.Unlock()
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	if tm := s.tenants.Load(); tm != nil {
		for _, ts := range *tm {
			cfg := ts.cfg.Load()
			st.Tenants = append(st.Tenants, TenantStatus{
				Name:        ts.name,
				Sessions:    ts.sessions.Load(),
				MaxSessions: cfg.MaxSessions,
				Logs:        ts.logs.Load(),
				MaxLogs:     cfg.MaxLogs,
				Bytes:       ts.bytes.Load(),
				MaxBytes:    cfg.MaxBytes,
			})
		}
		sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	}
	return st
}
