package client

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/stream/group"
	"clio/internal/wire"
	"clio/internal/wodev"
)

// tenantPair serves an in-memory store with the given tenant table and
// returns a redialable client authenticated as the tenant.
func tenantPair(t *testing.T, tenants []server.Tenant, tenant, token string) (*Client, *server.Server) {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.New([]*core.Service{svc})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewStore(st)
	srv.SetTenants(tenants)
	dialer := func(ctx context.Context) (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go srv.ServeConn(sConn)
		return cConn, nil
	}
	cl, err := DialContext(bg, "", Options{Dialer: dialer, Tenant: tenant, Token: token})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close(); srv.Close(); st.Close() })
	return cl, srv
}

func TestClientTenantSession(t *testing.T) {
	tenants := []server.Tenant{{Name: "acme", Token: "s3cret", MaxBytes: 64}}
	cl, _ := tenantPair(t, tenants, "acme", "s3cret")

	id, err := cl.CreateLog(bg, "/acme", 0o644, "t")
	if err != nil {
		t.Fatalf("create inside namespace: %v", err)
	}
	if _, err := cl.Append(bg, id, []byte(strings.Repeat("x", 40)), AppendOptions{Forced: true}); err != nil {
		t.Fatalf("append inside budget: %v", err)
	}

	// Over budget: the typed quota error comes back once, un-retried.
	_, err = cl.Append(bg, id, []byte(strings.Repeat("y", 40)), AppendOptions{Forced: true})
	var q *QuotaError
	if !errors.As(err, &q) {
		t.Fatalf("append over budget: %v, want QuotaError", err)
	}
	if !strings.Contains(err.Error(), "over bytes quota") {
		t.Errorf("quota error text = %q", err)
	}

	// Outside the namespace: refused.
	if _, err := cl.CreateLog(bg, "/other", 0o644, "t"); err == nil {
		t.Error("create outside namespace accepted")
	}
}

func TestClientBadTokenFailsHandshake(t *testing.T) {
	tenants := []server.Tenant{{Name: "acme", Token: "s3cret"}}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	svc, err := core.New(dev, core.Options{BlockSize: 512, Degree: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.New([]*core.Service{svc})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewStore(st)
	srv.SetTenants(tenants)
	t.Cleanup(func() { srv.Close(); st.Close() })
	dialer := func(ctx context.Context) (net.Conn, error) {
		cConn, sConn := net.Pipe()
		go srv.ServeConn(sConn)
		return cConn, nil
	}
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	cl, err := DialContext(ctx, "", Options{Dialer: dialer, Tenant: "acme", Token: "wrong"})
	if err == nil {
		cl.Close()
		t.Fatal("handshake with a bad token succeeded")
	}
}

// TestWatchSurvivesDrainWithStreamEnd: the client-visible half of the drain
// guarantee — a Watch subscriber of a server being SIGTERM-drained gets the
// explicit "ended by server" error, never a bare connection reset.
func TestWatchSurvivesDrainWithStreamEnd(t *testing.T) {
	tenants := []server.Tenant{{Name: "acme", Token: "s3cret"}}
	cl, srv := tenantPair(t, tenants, "acme", "s3cret")
	if _, err := cl.CreateLog(bg, "/acme", 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Watch(bg, "/acme", logapi.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(bg, 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	_, err = sub.Recv(ctx)
	if err == nil || !strings.Contains(err.Error(), "subscription ended by server") {
		t.Fatalf("Recv during drain: %v, want explicit stream end", err)
	}
	if !strings.Contains(err.Error(), "shutting down") {
		t.Errorf("stream end reason = %q", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestWatchDrainWhileConsumerHoldsABatch: a drain that finds the consumer
// working through a batch, with no pull outstanding, closes the
// subscription's connection at once; the consumer still gets every entry it
// was sent, then the "ended by server" error, never a bare closed pipe.
func TestWatchDrainWhileConsumerHoldsABatch(t *testing.T) {
	tenants := []server.Tenant{{Name: "acme", Token: "s3cret"}}
	cl, srv := tenantPair(t, tenants, "acme", "s3cret")
	id, err := cl.CreateLog(bg, "/acme", 0o644, "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"a", "b", "c"} {
		if _, err := cl.Append(bg, id, []byte(d), AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := cl.Watch(bg, "/acme", logapi.WatchOptions{FromStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if e := recvSub(t, sub); string(e.Data) != "a" {
		t.Fatalf("first entry %q", e.Data)
	}
	if rs := sub.(*remoteSub); len(rs.buf)-rs.pos != 2 || rs.asked {
		t.Fatalf("the consumer holds %d entries with a pull outstanding: %v; want 2 and none", len(rs.buf)-rs.pos, rs.asked)
	}
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, want := range []string{"b", "c"} {
		if e := recvSub(t, sub); string(e.Data) != want {
			t.Fatalf("held entry %q, want %q", e.Data, want)
		}
	}
	if _, err := sub.Recv(ctx); err == nil || !strings.Contains(err.Error(), "subscription ended by server") {
		t.Fatalf("Recv after the drain: %v, want the subscription ended by the server", err)
	}
}

// TestWatchAuthenticates: a multi-tenant server refuses an unauthenticated
// subscribe, and the tenant client's dedicated Watch connection presents
// its credentials.
func TestWatchAuthenticates(t *testing.T) {
	tenants := []server.Tenant{{Name: "acme", Token: "s3cret"}}
	cl, srv := tenantPair(t, tenants, "acme", "s3cret")
	if _, err := cl.CreateLog(bg, "/acme", 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Watch(bg, "/acme", logapi.WatchOptions{})
	if err != nil {
		t.Fatalf("authenticated watch: %v", err)
	}
	defer sub.Close()
	id, err := cl.Resolve(bg, "/acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append(bg, id, []byte("hi"), AppendOptions{Forced: true}); err != nil {
		t.Fatal(err)
	}
	e := recvSub(t, sub)
	if string(e.Data) != "hi" {
		t.Errorf("delivered %q", e.Data)
	}

	// A raw, unauthenticated subscribe on the same server is refused.
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	defer cConn.Close()
	req := wire.StreamSubscribe{Path: "/acme"}
	cConn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := server.WriteFrame(cConn, wire.OpSubscribe, 1, 0, req.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	status, _, _, _, err := server.ReadFrame(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if status == server.StatusOK {
		t.Error("unauthenticated subscribe accepted on a multi-tenant server")
	}
}

// joinTenantGroup lays down the tenant's one-partition topic /acme/events and
// joins the tenant-scoped group acme.g as member. The TTL is long enough
// that no heartbeat lands while a test runs.
func joinTenantGroup(t *testing.T, cl *Client, member string) (*group.Consumer, logapi.ID) {
	t.Helper()
	if _, err := cl.CreateLog(bg, "/acme", 0o644, "t"); err != nil {
		t.Fatal(err)
	}
	ids, err := group.EnsureTopic(bg, cl, "/acme/events", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := group.Join(bg, cl, "acme.g", member, "/acme/events", 1, group.Options{TTL: time.Minute})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	return c, ids[0]
}

// recvGroup receives one message from a consumer within five seconds.
func recvGroup(t *testing.T, c *group.Consumer) *group.Msg {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	m, err := c.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return m
}

// TestClientTenantJoinsGroup: a tenant-bound client joins a consumer group
// on a fresh tenanted server. Join creates the shared /.offsets root and the
// tenant's group log under it; neither counts toward the tenant's logs (the
// budget of two is exactly /acme and its one partition).
func TestClientTenantJoinsGroup(t *testing.T) {
	tenants := []server.Tenant{{Name: "acme", Token: "s3cret", MaxLogs: 2}}
	cl, _ := tenantPair(t, tenants, "acme", "s3cret")
	c, part := joinTenantGroup(t, cl, "m1")
	defer c.Close()
	if _, err := cl.Append(bg, part, []byte("job-1"), AppendOptions{Forced: true}); err != nil {
		t.Fatal(err)
	}
	m := recvGroup(t, c)
	if string(m.Data) != "job-1" {
		t.Fatalf("delivered %q", m.Data)
	}
	if err := c.Ack(bg, m); err != nil {
		t.Fatalf("ack: %v", err)
	}
}

// TestClientTenantGroupRecordsChargeBytes: a group record is an ordinary
// append, so it is charged to the tenant's byte budget like any other, and
// the first ack past the budget is refused with the typed quota error.
func TestClientTenantGroupRecordsChargeBytes(t *testing.T) {
	// Each record carries the 1000-byte member name: join, claim and the
	// first ack (about 3030 bytes with two messages) fit the budget, a
	// second ack does not.
	tenants := []server.Tenant{{Name: "acme", Token: "s3cret", MaxBytes: 3500}}
	cl, _ := tenantPair(t, tenants, "acme", "s3cret")
	c, part := joinTenantGroup(t, cl, strings.Repeat("m", 1000))
	defer c.Close()
	for _, data := range []string{"j1", "j2"} {
		if _, err := cl.Append(bg, part, []byte(data), AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Ack(bg, recvGroup(t, c)); err != nil {
		t.Fatalf("ack inside budget: %v", err)
	}
	var q *QuotaError
	if err := c.Ack(bg, recvGroup(t, c)); !errors.As(err, &q) {
		t.Fatalf("ack over budget: %v, want QuotaError", err)
	}
}
