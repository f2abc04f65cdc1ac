package mailstore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"clio/internal/core"
	"clio/internal/shard"
	"clio/internal/wodev"
)

func newStore(t *testing.T) (*Store, *core.Service, wodev.Device, core.Options) {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 14})
	now := int64(0)
	opt := core.Options{BlockSize: 512, Degree: 8,
		Now: func() int64 { now += 1000; return now }}
	svc, err := core.New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(context.Background(), shard.Single(svc), "/mail")
	if err != nil {
		t.Fatal(err)
	}
	return st, svc, dev, opt
}

func TestDeliverAndList(t *testing.T) {
	st, svc, _, _ := newStore(t)
	defer svc.Close()
	ctx := context.Background()
	if err := st.CreateMailbox(ctx, "smith"); err != nil {
		t.Fatal(err)
	}
	id1, err := st.Deliver(ctx, "smith", "alice", "hi", "hello smith")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := st.Deliver(ctx, "smith", "bob", "re: hi", "hello again")
	if err != nil || id2 <= id1 {
		t.Fatalf("second delivery: %d, %v", id2, err)
	}
	msgs, err := st.List(ctx, "smith", false)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("List: %d msgs, %v", len(msgs), err)
	}
	if msgs[0].From != "alice" || msgs[0].Subject != "hi" || msgs[0].Body != "hello smith" {
		t.Errorf("msg 0: %+v", msgs[0])
	}
	if msgs[0].Delivered != id1 {
		t.Errorf("msg id: %d vs %d", msgs[0].Delivered, id1)
	}
}

func TestUnknownMailbox(t *testing.T) {
	st, svc, _, _ := newStore(t)
	defer svc.Close()
	ctx := context.Background()
	if _, err := st.Deliver(ctx, "ghost", "x", "y", "z"); !errors.Is(err, ErrNoMailbox) {
		t.Errorf("deliver to ghost: %v", err)
	}
	if _, err := st.List(ctx, "ghost", false); !errors.Is(err, ErrNoMailbox) {
		t.Errorf("list ghost: %v", err)
	}
}

func TestFlagsAndHiding(t *testing.T) {
	st, svc, _, _ := newStore(t)
	defer svc.Close()
	ctx := context.Background()
	if err := st.CreateMailbox(ctx, "u"); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 3; i++ {
		id, err := st.Deliver(ctx, "u", "from", fmt.Sprintf("s%d", i), "body")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := st.MarkRead(ctx, "u", ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Hide(ctx, "u", ids[1]); err != nil {
		t.Fatal(err)
	}
	msgs, _ := st.List(ctx, "u", false)
	if len(msgs) != 2 {
		t.Fatalf("visible: %d", len(msgs))
	}
	if !msgs[0].Read || msgs[0].Delivered != ids[0] {
		t.Errorf("msg 0 flags: %+v", msgs[0])
	}
	all, _ := st.List(ctx, "u", true)
	if len(all) != 3 || !all[1].Hidden {
		t.Errorf("all: %d, hidden=%v", len(all), all[1].Hidden)
	}
	if err := st.MarkRead(ctx, "u", 424242); !errors.Is(err, ErrNoMessage) {
		t.Errorf("flag unknown: %v", err)
	}
}

func TestCacheRebuildFromHistory(t *testing.T) {
	st, svc, _, _ := newStore(t)
	defer svc.Close()
	ctx := context.Background()
	if err := st.CreateMailbox(ctx, "u"); err != nil {
		t.Fatal(err)
	}
	id, err := st.Deliver(ctx, "u", "a", "s", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.MarkRead(ctx, "u", id); err != nil {
		t.Fatal(err)
	}
	st.EvictCache()
	msgs, err := st.List(ctx, "u", true)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("after evict: %d, %v", len(msgs), err)
	}
	if !msgs[0].Read || msgs[0].From != "a" {
		t.Errorf("rebuilt message: %+v", msgs[0])
	}
}

func TestMailSurvivesCrash(t *testing.T) {
	st, svc, dev, opt := newStore(t)
	ctx := context.Background()
	if err := st.CreateMailbox(ctx, "u"); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 10; i++ {
		id, err := st.Deliver(ctx, "u", "postmaster", fmt.Sprintf("msg %d", i), "body body body")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	svc.Crash()
	svc2, err := core.Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st2, err := New(ctx, shard.Single(svc2), "/mail")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := st2.List(ctx, "u", true)
	if err != nil || len(msgs) != 10 {
		t.Fatalf("after crash: %d msgs, %v", len(msgs), err)
	}
	for i, m := range msgs {
		if m.Delivered != ids[i] || m.Subject != fmt.Sprintf("msg %d", i) {
			t.Errorf("msg %d: %+v", i, m)
		}
	}
	// The mail history remains appendable.
	if _, err := st2.Deliver(ctx, "u", "x", "new", "mail"); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxesAreLogFiles(t *testing.T) {
	st, svc, _, _ := newStore(t)
	defer svc.Close()
	ctx := context.Background()
	for _, u := range []string{"alice", "bob"} {
		if err := st.CreateMailbox(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	// A mailbox is a log file under the store's root.
	users, err := st.svc.List(ctx, st.root)
	if err != nil || fmt.Sprint(users) != "[alice bob]" {
		t.Errorf("mailboxes: %v, %v", users, err)
	}
	if _, err := st.Deliver(ctx, "alice", "bob", "s", "b"); err != nil {
		t.Fatal(err)
	}
	msgs, err := st.List(ctx, "alice", false)
	if err != nil || len(msgs) != 1 || msgs[0].From != "bob" {
		t.Errorf("List: %v, %v", msgs, err)
	}
}

func TestDeliverCC(t *testing.T) {
	st, svc, _, _ := newStore(t)
	defer svc.Close()
	ctx := context.Background()
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := st.CreateMailbox(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	id, err := st.DeliverCC(ctx, []string{"alice", "bob"}, "carol", "meeting", "3pm in the lab")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob"} {
		msgs, err := st.List(ctx, u, false)
		if err != nil || len(msgs) != 1 {
			t.Fatalf("%s: %d msgs, %v", u, len(msgs), err)
		}
		if msgs[0].Delivered != id || msgs[0].Subject != "meeting" {
			t.Errorf("%s: %+v", u, msgs[0])
		}
	}
	if msgs, _ := st.List(ctx, "carol", false); len(msgs) != 0 {
		t.Errorf("carol got a copy: %d", len(msgs))
	}
	// The agents' caches rebuild the CC'd message from the single entry.
	st.EvictCache()
	for _, u := range []string{"alice", "bob"} {
		msgs, err := st.List(ctx, u, false)
		if err != nil || len(msgs) != 1 || msgs[0].Body != "3pm in the lab" {
			t.Fatalf("%s after evict: %v, %v", u, msgs, err)
		}
	}
	// Per-recipient flags stay independent.
	if err := st.Hide(ctx, "alice", id); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := st.List(ctx, "alice", false); len(msgs) != 0 {
		t.Error("alice still sees hidden CC")
	}
	if msgs, _ := st.List(ctx, "bob", false); len(msgs) != 1 {
		t.Error("bob lost the CC when alice hid hers")
	}
	if _, err := st.DeliverCC(ctx, nil, "x", "y", "z"); err == nil {
		t.Error("empty recipient list accepted")
	}
}
