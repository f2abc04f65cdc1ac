package core_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"clio/internal/core"
	"clio/internal/logapi"
	"clio/internal/shard"
	"clio/internal/wodev"
)

// TestLocateUnique finds asynchronously written entries by the client's own
// sequence number and skewed clock (§2.1) through a store cursor.
func TestLocateUnique(t *testing.T) {
	ctx := context.Background()
	var now int64
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 16})
	svc, err := core.New(dev, core.Options{BlockSize: 256, Degree: 4, Now: func() int64 { now += 1000; return now }})
	if err != nil {
		t.Fatal(err)
	}
	st := shard.Single(svc)
	defer st.Close()
	id, err := st.CreateLog(ctx, "/async", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	// An async client tags entries with its own sequence number and keeps
	// its own (slightly skewed) clock.
	type pending struct {
		seq      int
		clientTS int64
	}
	var writes []pending
	for i := 0; i < 50; i++ {
		serverTS, err := st.Append(ctx, id, []byte(fmt.Sprintf("seq=%04d payload", i)), core.AppendOptions{Timestamped: true})
		if err != nil {
			t.Fatal(err)
		}
		// Client clock runs 3 "ticks" behind the server.
		writes = append(writes, pending{seq: i, clientTS: serverTS - 3000})
	}
	cur, err := st.OpenCursor(ctx, "/async")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 7, 25, 49} {
		want := fmt.Sprintf("seq=%04d payload", writes[w].seq)
		e, err := logapi.LocateUnique(ctx, cur, writes[w].clientTS, 10_000, func(e *core.Entry) bool {
			return bytes.HasPrefix(e.Data, []byte(fmt.Sprintf("seq=%04d", writes[w].seq)))
		})
		if err != nil {
			t.Fatalf("LocateUnique(%d): %v", w, err)
		}
		if string(e.Data) != want {
			t.Errorf("LocateUnique(%d) = %q", w, e.Data)
		}
	}
	// Outside the skew window: not found.
	if _, err := logapi.LocateUnique(ctx, cur, writes[10].clientTS, 500, func(e *core.Entry) bool {
		return bytes.HasPrefix(e.Data, []byte("seq=0049"))
	}); err != io.EOF {
		t.Errorf("out-of-window locate: %v", err)
	}
}
