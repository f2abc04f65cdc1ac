package mailstore

import (
	"context"
	"fmt"
	"net"
	"testing"

	"clio/internal/client"
	"clio/internal/core"
	"clio/internal/server"
	"clio/internal/wodev"
)

// TestMailOverTheNetwork runs the whole mail application against a remote
// log server — the paper's actual deployment shape, where the mail agent is
// a client of the extended file server.
func TestMailOverTheNetwork(t *testing.T) {
	ctx := context.Background()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	now := int64(0)
	svc, err := core.New(dev, core.Options{
		BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := server.New(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := client.DialOptions(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := New(ctx, cl, "/mail")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateMailbox(ctx, "remote-user"); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 8; i++ {
		id, err := st.Deliver(ctx, "remote-user", "sender", fmt.Sprintf("subject %d", i), "body over tcp")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.MarkRead(ctx, "remote-user", ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Hide(ctx, "remote-user", ids[3]); err != nil {
		t.Fatal(err)
	}

	// A second agent (fresh connection, fresh cache) sees the same state,
	// rebuilt entirely from the remote logs.
	cl2, err := client.DialOptions(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	st2, err := New(ctx, cl2, "/mail")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := st2.List(ctx, "remote-user", true)
	if err != nil || len(msgs) != 8 {
		t.Fatalf("remote list: %d msgs, %v", len(msgs), err)
	}
	if !msgs[2].Read || !msgs[3].Hidden {
		t.Errorf("flags not visible remotely: %+v %+v", msgs[2], msgs[3])
	}
	visible, _ := st2.List(ctx, "remote-user", false)
	if len(visible) != 7 {
		t.Errorf("visible: %d", len(visible))
	}
}
