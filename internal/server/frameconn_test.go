package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// tapConn is a net.Conn that reads from r and records every Write call.
type tapConn struct {
	net.Conn
	r      io.Reader
	reads  int
	out    bytes.Buffer
	writes int
}

func (c *tapConn) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

func frames(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), uint64(i+10), uint64(i+100), p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFrameConnOneReadForBufferedFrames: the frames one read took in are
// returned without another read, and a borrowed payload is the frame's bytes.
func TestFrameConnOneReadForBufferedFrames(t *testing.T) {
	c := &tapConn{r: bytes.NewReader(frames(t, []byte("one"), nil, []byte("three")))}
	fc := NewFrameConn(c)
	for i, want := range []string{"one", "", "three"} {
		op, seq, tr, p, err := fc.ReadFrame()
		if err != nil || op != byte(i+1) || seq != uint64(i+10) || tr != uint64(i+100) || string(p) != want {
			t.Fatalf("frame %d: %d %d %d %q %v", i, op, seq, tr, p, err)
		}
	}
	if c.reads != 1 {
		t.Errorf("three buffered frames took %d reads, want 1", c.reads)
	}
	if _, _, _, _, err := fc.ReadFrame(); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}
}

// TestFrameConnLargeFrame: a frame larger than the reader is read straight
// into its payload, borrowed or owned, and an owned payload survives the
// next read.
func TestFrameConnLargeFrame(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	c := &tapConn{r: bytes.NewReader(frames(t, big, []byte("after"), big))}
	fc := NewFrameConn(c)
	_, _, _, owned, err := fc.ReadFrameOwned()
	if err != nil || !bytes.Equal(owned, big) {
		t.Fatalf("owned large frame: %d bytes, %v", len(owned), err)
	}
	if _, _, _, p, err := fc.ReadFrame(); err != nil || string(p) != "after" {
		t.Fatalf("frame after it: %q %v", p, err)
	}
	_, _, _, borrowed, err := fc.ReadFrame()
	if err != nil || !bytes.Equal(borrowed, big) {
		t.Fatalf("borrowed large frame: %d bytes, %v", len(borrowed), err)
	}
	if !bytes.Equal(owned, big) {
		t.Error("an owned payload changed under a later read")
	}
}

// TestFrameConnTruncated: a stream that ends inside a header or a payload is
// io.ErrUnexpectedEOF, not a clean end.
func TestFrameConnTruncated(t *testing.T) {
	whole := frames(t, bytes.Repeat([]byte{7}, 5000))
	for _, cut := range []int{2, 10, 30, len(whole) - 1} {
		for _, owned := range []bool{false, true} {
			fc := NewFrameConn(&tapConn{r: bytes.NewReader(whole[:cut])})
			read := fc.ReadFrame
			if owned {
				read = fc.ReadFrameOwned
			}
			if _, _, _, _, err := read(); err != io.ErrUnexpectedEOF {
				t.Errorf("cut at %d (owned %v): %v, want io.ErrUnexpectedEOF", cut, owned, err)
			}
		}
	}
}

// TestFrameConnMaxFrame: an oversized length is refused before anything is
// allocated for it, and no path writes a frame over MaxFrame.
func TestFrameConnMaxFrame(t *testing.T) {
	for _, n := range []uint32{0, 16, MaxFrame + 1, 0xFFFFFFFF} {
		hdr := appendFrameHeader(nil, 1, 0, 0, 0)
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		fc := NewFrameConn(&tapConn{r: bytes.NewReader(hdr)})
		if _, _, _, _, err := fc.ReadFrame(); err != ErrFrameTooLarge {
			t.Errorf("length %d: %v", n, err)
		}
	}
	c := &tapConn{r: bytes.NewReader(nil)}
	fc := NewFrameConn(c)
	huge := make([]byte, MaxFrame)
	if err := fc.WriteFrame(1, 0, 0, huge); err != ErrFrameTooLarge {
		t.Errorf("WriteFrame: %v", err)
	}
	if err := fc.WriteFrameChunks(1, 0, 0, huge[:10], huge); err != ErrFrameTooLarge {
		t.Errorf("WriteFrameChunks: %v", err)
	}
	if err := fc.Queue(1, 0, 0, huge); err != ErrFrameTooLarge {
		t.Errorf("Queue: %v", err)
	}
	if c.writes != 0 || fc.Queued() != 0 {
		t.Errorf("refused frames wrote %d times, queued %d bytes", c.writes, fc.Queued())
	}
}

// TestFrameConnWrites: queued frames and the next one share a Write; a small
// payload is copied into it, a large one goes out uncopied beside it; the
// bytes are what WriteFrame renders; and a buffer grown past the bound is
// not kept.
func TestFrameConnWrites(t *testing.T) {
	c := &tapConn{r: bytes.NewReader(nil)}
	fc := NewFrameConn(c)
	big := bytes.Repeat([]byte{9}, 3*keepBuffer)
	if err := fc.Queue(1, 10, 100, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteFrameChunks(2, 11, 101, []byte("he"), []byte("ad")); err != nil {
		t.Fatal(err)
	}
	if c.writes != 1 {
		t.Errorf("a queued frame and a small one took %d writes, want 1", c.writes)
	}
	if err := fc.WriteFrameChunks(3, 12, 102, []byte("x"), big); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		fc.Queue(4, 13, 103, big[:keepBuffer])
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	if fc.wbuf != nil {
		t.Errorf("kept a %d-byte write buffer past the %d-byte bound", cap(fc.wbuf), keepBuffer)
	}
	var want bytes.Buffer
	WriteFrame(&want, 1, 10, 100, []byte("queued"))
	WriteFrame(&want, 2, 11, 101, []byte("head"))
	WriteFrame(&want, 3, 12, 102, append([]byte("x"), big...))
	for range 3 {
		WriteFrame(&want, 4, 13, 103, big[:keepBuffer])
	}
	if !bytes.Equal(c.out.Bytes(), want.Bytes()) {
		t.Error("written bytes differ from the frames' rendering")
	}
	for _, b := range fc.vecs {
		if b != nil {
			t.Error("a written body is still referenced")
		}
	}
}

// TestFrameConnWriteError: a failed write is reported and leaves nothing
// queued for the next frame.
func TestFrameConnWriteError(t *testing.T) {
	a, b := net.Pipe()
	b.Close()
	fc := NewFrameConn(a)
	if err := fc.WriteFrame(1, 0, 0, []byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write to a closed pipe: %v", err)
	}
	if fc.Queued() != 0 {
		t.Errorf("%d bytes left queued after a failed write", fc.Queued())
	}
}

// loopConn replays one byte string forever on Read and discards writes:
// the frame path alone, with no system call and no allocation of its own.
type loopConn struct {
	net.Conn
	src []byte
	off int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.src[c.off:])
	c.off = (c.off + n) % len(c.src)
	return n, nil
}

func (c *loopConn) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFrameRoundTrip is one request read through a connection's reader
// and one small answer written through its write buffer: a forced append's
// frame I/O on the server. It must report 0 allocs/op.
func BenchmarkFrameRoundTrip(b *testing.B) {
	req := PutBytes([]byte{1, AppendForced}, bytes.Repeat([]byte("x"), 100))
	var src bytes.Buffer
	WriteFrame(&src, OpAppend, 1, 1, req)
	fc := NewFrameConn(&loopConn{src: src.Bytes()})
	answer := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, seq, trace, payload, err := fc.ReadFrame()
		if err != nil || len(payload) != len(req) {
			b.Fatal(err)
		}
		if err := fc.WriteFrameChunks(StatusOK, seq, trace, answer, nil); err != nil {
			b.Fatal(err)
		}
	}
}
