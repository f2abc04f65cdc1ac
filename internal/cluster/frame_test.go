package cluster

import (
	"bytes"
	"net"
	"testing"

	"clio/internal/server"
	"clio/internal/wire"
)

// TestFollowerKeepsNothingOfTheFrame: a follower applies each replication
// frame straight from its connection's reused frame buffer, so nothing it
// stores may alias that buffer. After a ReplTail, a ReplWrite and a ReplAck
// apply, the buffer is overwritten: the staged image, the appended block and
// the recorded response must not change.
func TestFollowerKeepsNothingOfTheFrame(t *testing.T) {
	devs, nvs := roomyShard()
	n, err := New(Config{NodeID: "f", Devices: devs, NVRAMs: nvs, Quorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	fol := newFollowerState(n)
	bs := devs[0][0].BlockSize()
	image := bytes.Repeat([]byte{0xA1}, bs)
	block := bytes.Repeat([]byte{0xB2}, bs)
	resp := []byte("the recorded response")
	frames := []struct {
		op      byte
		payload []byte
	}{
		{wire.OpReplTail, (&wire.ReplTail{Global: 0, Image: image}).Encode(nil)},
		{wire.OpReplWrite, (&wire.ReplWrite{Index: 0, Data: block}).Encode(nil)},
		{wire.OpReplAck, (&wire.ReplAck{Session: 5, Seq: 1, Status: server.StatusOK, Resp: resp}).Encode(nil)},
	}
	buf := make([]byte, 2*bs) // the frame buffer every payload is read into
	for _, f := range frames {
		payload := buf[:copy(buf, f.payload)]
		if err := fol.apply(f.op, payload); err != nil {
			t.Fatalf("apply 0x%x: %v", f.op, err)
		}
		for i := range buf {
			buf[i] = 0xEE
		}
	}
	if _, got, err := nvs[0].Load(); err != nil || !bytes.Equal(got, image) {
		t.Errorf("staged image changed with the frame buffer (%v)", err)
	}
	got := make([]byte, bs)
	if err := devs[0][0].ReadBlock(0, got); err != nil || !bytes.Equal(got, block) {
		t.Errorf("appended block changed with the frame buffer (%v)", err)
	}
	sessions := fol.sessions.Export(0)
	if len(sessions) != 1 || len(sessions[0].Resps) != 1 || !bytes.Equal(sessions[0].Resps[0].Resp, resp) {
		t.Errorf("recorded response changed with the frame buffer: %+v", sessions)
	}
}

// memPipe is one direction of an in-memory connection: bytes written wait
// in buf until read, and the buffer is reused once drained.
type memPipe struct {
	buf []byte
	off int
}

// memConn is an allocation-free net.Conn over two memPipes, for measuring
// the frame path alone.
type memConn struct {
	net.Conn
	in, out *memPipe
}

func (c memConn) Read(p []byte) (int, error) {
	n := copy(p, c.in.buf[c.in.off:])
	if c.in.off += n; c.in.off == len(c.in.buf) {
		c.in.buf, c.in.off = c.in.buf[:0], 0
	}
	return n, nil
}

func (c memConn) Write(p []byte) (int, error) {
	c.out.buf = append(c.out.buf, p...)
	return len(p), nil
}

// BenchmarkStreamBatch is a gated force's replication frame I/O: the sender
// encodes the force's tail and its ReplAck into its write buffer and writes
// them once, the follower reads both and answers one cumulative ack, and the
// leader's ack reader reads it. The payloads are encoded when they are
// emitted, once for every sender, so they are not part of it. It must report
// 0 allocs/op.
func BenchmarkStreamBatch(b *testing.B) {
	toFollower, toLeader := &memPipe{}, &memPipe{}
	leader := server.NewFrameConn(memConn{in: toLeader, out: toFollower})
	follower := server.NewFrameConn(memConn{in: toFollower, out: toLeader})
	tail := (&wire.ReplTail{Global: 7, Image: make([]byte, 1024)}).Encode(nil)
	ack := (&wire.ReplAck{Session: 1, Seq: 1, Status: server.StatusOK, Resp: make([]byte, 8)}).Encode(nil)
	batch := []frame{{pos: 1, op: wire.OpReplTail, payload: tail}, {pos: 2, op: wire.OpReplAck, payload: ack}}
	var queued chan []frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sendBatches(leader, queued, batch); err != nil {
			b.Fatal(err)
		}
		var applied uint64
		for range batch {
			_, pos, _, _, err := follower.ReadFrame()
			if err != nil {
				b.Fatal(err)
			}
			applied = pos
		}
		if err := follower.WriteFrame(server.StatusOK, applied, 0, nil); err != nil {
			b.Fatal(err)
		}
		if _, pos, _, _, err := leader.ReadFrame(); err != nil || pos != 2 {
			b.Fatal(pos, err)
		}
	}
}
