package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"clio/internal/logapi"
	"clio/internal/obs"
	"clio/internal/wire"
)

// testTenants is the table the tenant tests serve under.
func testTenants() []Tenant {
	return []Tenant{
		{Name: "acme", Token: "acme-secret", MaxLogs: 3, MaxBytes: 64, MaxSessions: 2},
		{Name: "beta", Token: "beta-secret"},
	}
}

// dialTenant opens one more connection to srv and, when token is non-empty,
// binds it to the tenant.
func dialTenant(t *testing.T, srv *Server, tenant, token string) net.Conn {
	t.Helper()
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	t.Cleanup(func() { cConn.Close() })
	if token != "" {
		status, resp := roundTrip(t, cConn, OpHello, wire.Hello{Tenant: tenant, Token: token}.Encode(nil))
		if status != StatusOK {
			msg, _ := NewDecoder(resp).String()
			t.Fatalf("hello as %s: status %d (%s)", tenant, status, msg)
		}
	}
	return cConn
}

func createPayload(path string) []byte {
	p := PutString(nil, path)
	p = wire.PutUint16(p, 0o644)
	return PutString(p, "t")
}

func appendPayload(id uint64, data string) []byte {
	p := wire.PutUvarint(nil, id)
	p = append(p, AppendForced)
	return PutBytes(p, []byte(data))
}

func TestTenantAuthentication(t *testing.T) {
	srv, conn := testServer(t)
	srv.SetTenants(testTenants())

	// Unauthenticated connections may ping (health checks) but nothing else.
	if status, _ := roundTrip(t, conn, OpPing, nil); status != StatusOK {
		t.Error("ping refused before hello")
	}
	status, resp := roundTrip(t, conn, OpCreate, createPayload("/acme/a"))
	if status != StatusErr {
		t.Fatalf("unauthenticated create: status %d", status)
	}
	if msg, _ := NewDecoder(resp).String(); !strings.Contains(msg, "authentication required") {
		t.Errorf("unauthenticated create error = %q", msg)
	}

	// Wrong token, unknown tenant, missing credentials: all refused.
	for _, h := range []wire.Hello{
		{Tenant: "acme", Token: "wrong"},
		{Tenant: "nobody", Token: "acme-secret"},
		{},
	} {
		if status, _ := roundTrip(t, conn, OpHello, h.Encode(nil)); status == StatusOK {
			t.Errorf("hello %+v accepted", h)
		}
	}

	// The right token binds, and the namespace opens up.
	if status, _ := roundTrip(t, conn, OpHello, wire.Hello{Tenant: "acme", Token: "acme-secret"}.Encode(nil)); status != StatusOK {
		t.Fatal("authenticated hello refused")
	}
	if status, _ := roundTrip(t, conn, OpCreate, createPayload("/acme")); status != StatusOK {
		t.Error("create inside namespace refused")
	}
}

func TestTenantNamespaceIsolation(t *testing.T) {
	srv, _ := testServer(t)
	srv.SetTenants(testTenants())
	acme := dialTenant(t, srv, "acme", "acme-secret")
	beta := dialTenant(t, srv, "beta", "beta-secret")

	if status, _ := roundTrip(t, beta, OpCreate, createPayload("/beta")); status != StatusOK {
		t.Fatal("beta create failed")
	}
	status, resp := roundTrip(t, beta, OpCreate, createPayload("/beta/inner"))
	if status != StatusOK {
		t.Fatal("beta inner create failed")
	}
	r := newReader(resp)
	betaID, err := r.Uvarint(), r.Err()
	if err != nil {
		t.Fatal(err)
	}

	// Path-addressed ops outside the namespace: refused with a clear error.
	for op, payload := range map[byte][]byte{
		OpCreate:     createPayload("/beta/x"),
		OpResolve:    PutString(nil, "/beta"),
		OpList:       PutString(nil, "/beta"),
		OpStat:       PutString(nil, "/beta/inner"),
		OpCursorOpen: PutString(nil, "/beta/inner"),
	} {
		status, resp := roundTrip(t, acme, op, payload)
		if status != StatusErr {
			t.Errorf("op %s across tenants: status %d", opName(op), status)
			continue
		}
		if msg, _ := NewDecoder(resp).String(); !strings.Contains(msg, "outside tenant acme namespace") {
			t.Errorf("op %s across tenants: %q", opName(op), msg)
		}
	}

	// Id-addressed append: the id is attributed back to its path.
	status, resp = roundTrip(t, acme, OpAppend, appendPayload(betaID, "x"))
	if status != StatusErr {
		t.Fatalf("cross-tenant append by id: status %d", status)
	}
	if msg, _ := NewDecoder(resp).String(); !strings.Contains(msg, "outside tenant acme namespace") {
		t.Errorf("cross-tenant append error = %q", msg)
	}

	// The owner can still use the same id.
	if status, _ := roundTrip(t, beta, OpAppend, appendPayload(betaID, "x")); status != StatusOK {
		t.Error("owner append refused")
	}
}

func TestTenantQuotasAndMetrics(t *testing.T) {
	srv, _ := testServer(t)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	srv.SetTenants(testTenants())
	conn := dialTenant(t, srv, "acme", "acme-secret")

	quotaCount := func(quota string) int64 {
		return reg.Counter("clio_tenant_quota_exceeded_total",
			"Requests refused with StatusQuotaExceeded, by quota.",
			obs.L("tenant", "acme"), obs.L("quota", quota)).Value()
	}

	// MaxLogs = 3: the root plus two sublogs fit, the fourth log does not.
	mustOK(t, conn, OpCreate, createPayload("/acme"))
	mustOK(t, conn, OpCreate, createPayload("/acme/a"))
	// A create that reserves a slot but fails in dispatch (duplicate path)
	// must return the reservation — the third create below still fits.
	if status, _ := roundTrip(t, conn, OpCreate, createPayload("/acme/a")); status != StatusErr {
		t.Error("duplicate create did not error")
	}
	mustOK(t, conn, OpCreate, createPayload("/acme/b"))
	status, resp := roundTrip(t, conn, OpCreate, createPayload("/acme/c"))
	if status != StatusQuotaExceeded {
		t.Fatalf("create over log quota: status %d, want %d", status, StatusQuotaExceeded)
	}
	if msg, _ := NewDecoder(resp).String(); !strings.Contains(msg, "over logs quota") {
		t.Errorf("quota error = %q", msg)
	}
	if got := quotaCount("logs"); got != 1 {
		t.Errorf("clio_tenant_quota_exceeded_total{quota=logs} = %d, want 1", got)
	}

	// MaxBytes = 64: a 40-byte append fits, the next 40 bytes do not, and
	// the refusal must not consume budget — a 20-byte append still fits.
	r := newReader(mustOK(t, conn, OpResolve, PutString(nil, "/acme/a")))
	id, err := r.Uvarint(), r.Err()
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := roundTrip(t, conn, OpAppend, appendPayload(id, strings.Repeat("x", 40))); status != StatusOK {
		t.Fatal("append within budget refused")
	}
	status, resp = roundTrip(t, conn, OpAppend, appendPayload(id, strings.Repeat("y", 40)))
	if status != StatusQuotaExceeded {
		t.Fatalf("append over byte quota: status %d, want %d", status, StatusQuotaExceeded)
	}
	if msg, _ := NewDecoder(resp).String(); !strings.Contains(msg, "over bytes quota") {
		t.Errorf("quota error = %q", msg)
	}
	if got := quotaCount("bytes"); got != 1 {
		t.Errorf("clio_tenant_quota_exceeded_total{quota=bytes} = %d, want 1", got)
	}
	if status, _ := roundTrip(t, conn, OpAppend, appendPayload(id, strings.Repeat("z", 20))); status != StatusOK {
		t.Error("refusal consumed byte budget: in-budget append refused")
	}
	appended := reg.Counter("clio_tenant_bytes_appended_total",
		"Entry bytes successfully appended by the tenant.", obs.L("tenant", "acme")).Value()
	if appended != 60 {
		t.Errorf("clio_tenant_bytes_appended_total = %d, want 60", appended)
	}
}

func TestTenantSessionQuota(t *testing.T) {
	srv, _ := testServer(t)
	srv.SetTenants(testTenants())
	c1 := dialTenant(t, srv, "acme", "acme-secret")
	dialTenant(t, srv, "acme", "acme-secret")

	// MaxSessions = 2: the third concurrent bind is refused with the typed
	// status.
	c3Conn, c3Srv := net.Pipe()
	go srv.ServeConn(c3Srv)
	defer c3Conn.Close()
	status, _ := roundTrip(t, c3Conn, OpHello, wire.Hello{Tenant: "acme", Token: "acme-secret"}.Encode(nil))
	if status != StatusQuotaExceeded {
		t.Fatalf("third session: status %d, want %d", status, StatusQuotaExceeded)
	}

	// Closing a bound connection frees its slot (release runs in the
	// connection's teardown, so poll briefly).
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ = roundTrip(t, c3Conn, OpHello, wire.Hello{Tenant: "acme", Token: "acme-secret"}.Encode(nil))
		if status == StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session slot never freed after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTenantSessionPinning(t *testing.T) {
	srv, _ := testServer(t)
	srv.SetTenants(testTenants())
	acme := dialTenant(t, srv, "acme", "acme-secret")

	// acme attaches shared session 42.
	if status, _ := roundTrip(t, acme, OpHello, wire.Hello{Session: 42, Tenant: "acme", Token: "acme-secret"}.Encode(nil)); status != StatusOK {
		t.Fatal("acme session hello refused")
	}
	// beta presenting valid credentials must still not reach acme's session
	// (its cached responses would leak).
	beta := dialTenant(t, srv, "beta", "beta-secret")
	status, resp := roundTrip(t, beta, OpHello, wire.Hello{Session: 42, Tenant: "beta", Token: "beta-secret"}.Encode(nil))
	if status != StatusErr {
		t.Fatalf("cross-tenant session attach: status %d", status)
	}
	if msg, _ := NewDecoder(resp).String(); !strings.Contains(msg, "belongs to another tenant") {
		t.Errorf("cross-tenant session attach error = %q", msg)
	}
}

// TestTenantCursorHandlesStayPrivate: a cursor handle names a cursor of the
// session that opened it, and a session belongs to one tenant, so a handle
// another tenant holds is refused — by the fused seek as by every cursor op,
// before anything is sought or read — and a tenant's own seek on the same
// handle number moves only its own cursor.
func TestTenantCursorHandlesStayPrivate(t *testing.T) {
	srv, _ := testServer(t)
	srv.SetTenants(testTenants())
	acme := dialTenant(t, srv, "acme", "acme-secret")
	beta := dialTenant(t, srv, "beta", "beta-secret")
	open := func(conn net.Conn, path string, data ...string) []byte {
		t.Helper()
		r := newReader(mustOK(t, conn, OpCreate, createPayload(path)))
		id, err := r.Uvarint(), r.Err()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range data {
			mustOK(t, conn, OpAppend, appendPayload(id, d))
		}
		h, err := NewDecoder(mustOK(t, conn, OpCursorOpen, PutString(nil, path))).Uint32()
		if err != nil {
			t.Fatal(err)
		}
		return wire.PutUvarint(nil, uint64(h))
	}
	fused := func(hb []byte) []byte {
		return wire.PutUvarint(wire.PutUint64(append([]byte(nil), hb...), 0), 1)
	}
	open(acme, "/acme", "a0")
	acme2 := open(acme, "/acme/x", "a1") // acme's second handle
	beta1 := open(beta, "/beta", "b0")   // beta's only one
	if bytes.Equal(acme2, beta1) {
		t.Fatal("fixture: acme's second handle should be one beta never opened")
	}
	for _, p := range [][]byte{fused(acme2), wire.PutUint64(append([]byte(nil), acme2...), 0)} {
		status, resp := roundTrip(t, beta, OpSeekTime, p)
		if msg, _ := NewDecoder(resp).String(); status != StatusErr || !strings.Contains(msg, "unknown cursor handle") {
			t.Fatalf("beta seeking on acme's handle: status %d, %q", status, msg)
		}
	}
	// beta's own fused seek reads beta's log, and acme's cursor on the handle
	// number they share has not moved.
	if got := batchData(t, mustOK(t, beta, OpSeekTime, fused(beta1))); fmt.Sprint(got) != "[b0]" {
		t.Fatalf("beta's fused seek returned %v, want its own entry", got)
	}
	if got := batchData(t, mustOK(t, acme, OpSeekTime, fused(acme2))); fmt.Sprint(got) != "[a1]" {
		t.Fatalf("acme's fused seek returned %v, want its own entry", got)
	}
}

func TestSetTenantsReload(t *testing.T) {
	srv, _ := testServer(t)
	srv.SetTenants(testTenants())
	conn := dialTenant(t, srv, "acme", "acme-secret")
	for _, path := range []string{"/acme", "/acme/a", "/acme/b"} {
		mustOK(t, conn, OpCreate, createPayload(path))
	}
	if status, _ := roundTrip(t, conn, OpCreate, createPayload("/acme/c")); status != StatusQuotaExceeded {
		t.Fatal("log quota not enforced before reload")
	}

	// Reload: quota raised, token rotated. Usage must carry over (the
	// fourth create fits, a fifth would not), the old token must stop
	// working, and the live session keeps its binding.
	srv.SetTenants([]Tenant{{Name: "acme", Token: "rotated", MaxLogs: 4}})
	if status, _ := roundTrip(t, conn, OpCreate, createPayload("/acme/c")); status != StatusOK {
		t.Error("raised quota not applied on reload")
	}
	if status, _ := roundTrip(t, conn, OpCreate, createPayload("/acme/d")); status != StatusQuotaExceeded {
		t.Error("usage counters reset by reload: fifth create accepted")
	}
	stale, staleSrv := net.Pipe()
	go srv.ServeConn(staleSrv)
	defer stale.Close()
	if status, _ := roundTrip(t, stale, OpHello, wire.Hello{Tenant: "acme", Token: "acme-secret"}.Encode(nil)); status == StatusOK {
		t.Error("rotated-out token still accepted")
	}
	if status, _ := roundTrip(t, stale, OpHello, wire.Hello{Tenant: "acme", Token: "rotated"}.Encode(nil)); status != StatusOK {
		t.Error("rotated token refused")
	}
	if status, _ := roundTrip(t, conn, OpResolve, PutString(nil, "/acme/a")); status != StatusOK {
		t.Error("existing session lost its binding across reload")
	}
}

func TestTenantSeedCountsExistingLogs(t *testing.T) {
	srv, conn := testServer(t)
	// Open mode: lay down two logs under what will become acme's namespace.
	mustOK(t, conn, OpCreate, createPayload("/acme"))
	mustOK(t, conn, OpCreate, createPayload("/acme/old"))

	srv.SetTenants([]Tenant{{Name: "acme", Token: "s", MaxLogs: 3}})
	tc := dialTenant(t, srv, "acme", "s")
	// 2 existing + 1 new = 3; the next one must trip the quota.
	if status, _ := roundTrip(t, tc, OpCreate, createPayload("/acme/new")); status != StatusOK {
		t.Fatal("create under seeded namespace refused")
	}
	if status, _ := roundTrip(t, tc, OpCreate, createPayload("/acme/over")); status != StatusQuotaExceeded {
		t.Error("seed did not count pre-existing logs")
	}
}

// TestTenantGroupScoping: a group record is an ordinary append to the
// group's offsets log, so the ordinary gate scopes it. A tenant may create
// the shared /.offsets root and, under it, the offsets logs of its own
// groups ("<tenant>.<group>") — none of which spend a log slot — but may
// neither create nor append to another group's log.
func TestTenantGroupScoping(t *testing.T) {
	srv, _ := testServer(t)
	srv.SetTenants(testTenants())
	conn := dialTenant(t, srv, "acme", "acme-secret")

	mustOK(t, conn, OpCreate, createPayload(logapi.OffsetsRoot))
	status, resp := roundTrip(t, conn, OpCreate, createPayload(logapi.OffsetsRoot+"/plain"))
	if status != StatusErr {
		t.Fatalf("unscoped group log create: status %d", status)
	}
	if msg, _ := NewDecoder(resp).String(); !strings.Contains(msg, "outside tenant acme namespace") {
		t.Errorf("unscoped group log error = %q", msg)
	}
	own := newReader(mustOK(t, conn, OpCreate, createPayload(logapi.OffsetsRoot+"/acme.plain"))).Uvarint()
	mustOK(t, conn, OpAppend, appendPayload(own, "rec"))
	if n := (*srv.tenants.Load())["acme"].logs.Load(); n != 0 {
		t.Errorf("group logs counted toward the tenant's logs: %d", n)
	}

	plain, err := srv.store.CreateLog(context.Background(), logapi.OffsetsRoot+"/plain", 0o600, "system")
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := roundTrip(t, conn, OpAppend, appendPayload(uint64(plain), "rec")); status != StatusErr {
		t.Errorf("append to an unscoped group log: status %d", status)
	}
	if status, _ := roundTrip(t, conn, OpCursorOpen, PutString(nil, logapi.OffsetsRoot+"/acme.plain")); status != StatusOK {
		t.Error("tenant cannot read its own offsets log")
	}
	if status, _ := roundTrip(t, conn, OpCursorOpen, PutString(nil, logapi.OffsetsRoot+"/beta.g")); status != StatusErr {
		t.Error("tenant can read another tenant's offsets log")
	}
}

// TestTenantGroupHasOneOwner: a group log belongs to the tenant named by the
// group's first "."-separated component, so /.offsets/acme.b.jobs is acme's
// group "b.jobs" and nothing of a tenant "acme.b" (which config refuses to
// declare, but SetTenants takes as given).
func TestTenantGroupHasOneOwner(t *testing.T) {
	srv, _ := testServer(t)
	srv.SetTenants([]Tenant{{Name: "acme", Token: "a"}, {Name: "acme.b", Token: "b"}})
	acme := dialTenant(t, srv, "acme", "a")
	dotted := dialTenant(t, srv, "acme.b", "b")

	path := logapi.OffsetsRoot + "/acme.b.jobs"
	ctx := context.Background()
	srv.store.CreateLog(ctx, logapi.OffsetsRoot, 0o600, "system")
	id, err := srv.store.CreateLog(ctx, path, 0o600, "system")
	if err != nil {
		t.Fatal(err)
	}
	mustOK(t, acme, OpAppend, appendPayload(uint64(id), "rec"))
	if status, _ := roundTrip(t, dotted, OpAppend, appendPayload(uint64(id), "rec")); status != StatusErr {
		t.Errorf("second tenant appended to the group log: status %d", status)
	}
	if status, _ := roundTrip(t, dotted, OpCursorOpen, PutString(nil, path)); status != StatusErr {
		t.Errorf("second tenant opened the group log: status %d", status)
	}
}

// mustOK round-trips one frame and fails the test on a non-OK status.
func mustOK(t *testing.T, conn net.Conn, op byte, payload []byte) []byte {
	t.Helper()
	status, resp := roundTrip(t, conn, op, payload)
	if status != StatusOK {
		msg, _ := NewDecoder(resp).String()
		t.Fatalf("op %s: status %d (%s)", opName(op), status, msg)
	}
	return resp
}

// TestTenantSessionSoak drives many concurrent authenticated sessions
// through bind, a namespaced op and teardown, and checks nothing leaks: the
// slot count returns to zero and the server stays serviceable. The short
// variant keeps the count race-detector friendly.
func TestTenantSessionSoak(t *testing.T) {
	sessions, workers := 2000, 64
	if testing.Short() {
		sessions, workers = 300, 16
	}
	srv, setup := testServer(t)
	srv.SetTenants([]Tenant{
		{Name: "acme", Token: "acme-secret"},
		{Name: "beta", Token: "beta-secret"},
	})
	_ = setup
	bootstrap := dialTenant(t, srv, "acme", "acme-secret")
	mustOK(t, bootstrap, OpCreate, createPayload("/acme"))

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				func() {
					cConn, sConn := net.Pipe()
					defer cConn.Close()
					go srv.ServeConn(sConn)
					tenant, token := "acme", "acme-secret"
					if i%3 == 0 {
						tenant, token = "beta", "beta-secret"
					}
					cConn.SetDeadline(time.Now().Add(30 * time.Second))
					hello := wire.Hello{Session: uint64(1000 + i), Tenant: tenant, Token: token}.Encode(nil)
					if err := WriteFrame(cConn, OpHello, 0, 0, hello); err != nil {
						errCh <- err
						return
					}
					status, _, _, _, err := ReadFrame(cConn)
					if err != nil {
						errCh <- err
						return
					}
					if status != StatusOK {
						errCh <- errStatus(status)
						return
					}
					// One namespaced request per session keeps the gate hot.
					if err := WriteFrame(cConn, OpResolve, 0, 0, PutString(nil, "/"+tenant)); err != nil {
						errCh <- err
						return
					}
					if _, _, _, _, err := ReadFrame(cConn); err != nil {
						errCh <- err
					}
				}()
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("soak session failed: %v", err)
	}

	// Every slot must come back: connection teardown runs asynchronously,
	// so poll for the gauges to settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := int64(0)
		for _, ts := range srv.Status().Tenants {
			total += ts.Sessions
		}
		if total == 1 { // the bootstrap connection still holds its slot
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session slots leaked: %d still held", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type errStatus byte

func (e errStatus) Error() string { return "unexpected status " + string('0'+byte(e)) }
