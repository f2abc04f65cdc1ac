package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"clio/internal/core"
	"clio/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpAppend, 7, 42, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, StatusOK, 7, 0, nil); err != nil {
		t.Fatal(err)
	}
	op, seq, tr, p, err := ReadFrame(&buf)
	if err != nil || op != OpAppend || seq != 7 || tr != 42 || string(p) != "payload" {
		t.Fatalf("frame 1: %d %d %d %q %v", op, seq, tr, p, err)
	}
	op, seq, tr, p, err = ReadFrame(&buf)
	if err != nil || op != StatusOK || seq != 7 || tr != 0 || len(p) != 0 {
		t.Fatalf("frame 2: %d %d %d %q %v", op, seq, tr, p, err)
	}
	if _, _, _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, 0, 0, make([]byte, MaxFrame)); err != ErrFrameTooLarge {
		t.Errorf("oversize write: %v", err)
	}
	// A poisoned length prefix must be rejected before allocation.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, _, _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Errorf("oversize read: %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 7, 1, 0, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestFrameProperty(t *testing.T) {
	f := func(op byte, seq, trace uint64, payload []byte) bool {
		if len(payload)+17 > MaxFrame {
			return true
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, op, seq, trace, payload); err != nil {
			return false
		}
		gotOp, gotSeq, gotTr, gotP, err := ReadFrame(&buf)
		return err == nil && gotOp == op && gotSeq == seq && gotTr == trace && bytes.Equal(gotP, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecoderConsumesInOrder(t *testing.T) {
	p := PutString(nil, "hello")
	p = PutBytes(p, []byte{1, 2, 3})
	d := newReader(p)
	if s := d.String(); d.Err() != nil || s != "hello" {
		t.Fatalf("String: %q %v", s, d.Err())
	}
	if bts := d.Bytes(); d.Err() != nil || !bytes.Equal(bts, []byte{1, 2, 3}) {
		t.Fatalf("Bytes: %v %v", bts, d.Err())
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
	// Reading past the end fails cleanly, with the family's text, whatever
	// is read; the first failure is the one kept.
	reads := map[string]func(*wire.Reader){
		"byte":    func(r *wire.Reader) { r.Byte() },
		"uint16":  func(r *wire.Reader) { r.Uint16() },
		"uint32":  func(r *wire.Reader) { r.Uint32() },
		"int64":   func(r *wire.Reader) { r.Int64() },
		"uvarint": func(r *wire.Reader) { r.Uvarint() },
	}
	for kind, read := range reads {
		r := newReader(nil)
		read(r)
		if want := "server: malformed payload: " + kind; r.Err() == nil || r.Err().Error() != want {
			t.Errorf("%s past end: err = %v, want %q", kind, r.Err(), want)
		}
		r.Fail("later")
		if r.Uvarint() != 0 || !strings.HasSuffix(r.Err().Error(), kind) {
			t.Errorf("%s: a later failure replaced the first: %v", kind, r.Err())
		}
	}
}

func TestDecoderRejectsOversizeString(t *testing.T) {
	// Length prefix claims more than available.
	d := newReader([]byte{200, 1, 'x'})
	if _ = d.String(); d.Err() == nil {
		t.Error("oversize string accepted")
	}
	// The bench's (value, error) adapter reads through the same reader.
	if _, err := NewDecoder([]byte{200, 1, 'x'}).String(); err == nil {
		t.Error("oversize string accepted by the Decoder adapter")
	}
}

// sampleEntries covers the layout's variable parts: multi-byte uvarints,
// extra member ids, and empty data.
func sampleEntries() []*core.Entry {
	return []*core.Entry{
		{LogID: 7, Timestamp: 1000, Timestamped: true, Data: []byte("first"), Block: 3, Index: 2},
		{LogID: 4095, Timestamp: 1 << 40, Forced: true, Data: bytes.Repeat([]byte{0xAB}, 300),
			Block: 70000, Index: 130, Shard: 3, ExtraIDs: []uint16{9, 4000}},
		{LogID: 5, Timestamp: 2000, Block: 1, Index: 0},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for i, e := range sampleEntries() {
		enc := EncodeEntry(e)
		d := newReader(enc)
		got, err := DecodeEntry(d)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if d.Len() != 0 {
			t.Errorf("entry %d: %d bytes left over", i, d.Len())
		}
		if len(e.Data) == 0 {
			got.Data = nil // the view of empty data is an empty, non-nil slice
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("entry %d: decoded %+v, want %+v", i, got, e)
		}
	}
}

// encodeBatch lays entries out the way a batched OpNext response does.
func encodeBatch(entries []*core.Entry) []byte {
	out := wire.PutUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		out = append(out, EncodeEntry(e)...)
	}
	return out
}

func TestEntryBatchDecode(t *testing.T) {
	entries := sampleEntries()
	good := encodeBatch(entries)
	got, err := DecodeEntryBatch(newReader(good))
	if err != nil || len(got) != len(entries) {
		t.Fatalf("good batch: %d entries, %v", len(got), err)
	}
	// The data aliases the payload, but an append to one entry's data
	// reallocates instead of running into the next entry.
	_ = append(got[0].Data, bytes.Repeat([]byte{'!'}, 400)...)
	for i := range got {
		if !bytes.Equal(got[i].Data, entries[i].Data) || got[i].Block != entries[i].Block {
			t.Errorf("entry %d: %+v", i, got[i])
		}
	}

	over := append(wire.PutUvarint(nil, MaxBatchEntries+1), good[1:]...)
	lenPastFrame := encodeBatch(entries[:1])
	lenPastFrame[len(lenPastFrame)-len(entries[0].Data)-1] = 200 // data length prefix
	bad := []struct {
		name    string
		payload []byte
		wantErr string
	}{
		{"empty payload", nil, "uvarint"},
		{"truncated count", []byte{0x80}, "uvarint"},
		{"zero-length batch", []byte{0}, "batch count"},
		{"count above the server's maximum", over, "batch count"},
		{"count more entries than the bytes could hold", append(wire.PutUvarint(nil, MaxBatchEntries), good[1:]...), "batch count"},
		{"count claims more entries than follow", append([]byte{4}, good[1:]...), "malformed"},
		{"cut inside an entry head", good[:5], "malformed"},
		{"cut inside entry data", good[:len(good)-1], "malformed"},
		{"entry length past the frame", lenPastFrame, "bytes body"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
	}
	for _, tc := range bad {
		out, err := DecodeEntryBatch(newReader(tc.payload))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
		if out != nil {
			t.Errorf("%s: a rejected batch returned %d entries", tc.name, len(out))
		}
	}
}

// entryPtrs points at each entry of a decoded batch.
func entryPtrs(slab []core.Entry) []*core.Entry {
	out := make([]*core.Entry, len(slab))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

// TestEntryBatchDecodeOneAllocation: a full batch — a MaxBatchBytes payload
// of session-sized entries, as a scan at the cap receives — decodes in exactly
// one allocation, the slab of entry values; the reader and the entries' data
// borrow the payload.
func TestEntryBatchDecodeOneAllocation(t *testing.T) {
	var entries []*core.Entry
	for size := 1; size < MaxBatchBytes; {
		e := &core.Entry{LogID: 7, Timestamp: int64(1e9 + len(entries)), Forced: true,
			Data:  []byte(fmt.Sprintf("/sessions entry %06d, padded to a session record", len(entries))),
			Block: 4000 + len(entries)/12, Index: len(entries) % 12}
		entries = append(entries, e)
		size += len(EncodeEntry(e))
	}
	payload := encodeBatch(entries)
	if len(payload) < MaxBatchBytes || len(entries) > MaxBatchEntries {
		t.Fatalf("fixture: %d entries in %d bytes, want a full batch", len(entries), len(payload))
	}
	var got []core.Entry
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if got, err = DecodeEntryBatch(newReader(payload)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("decoding a batch of %d entries (%d bytes) allocated %.1f times, want 1", len(entries), len(payload), allocs)
	}
	if !sameEntries(entryPtrs(got), entries) {
		t.Fatal("the batch did not decode to the entries sent")
	}
}

// minimalEntries returns n entries of the smallest wire size: no data, no
// extra ids, and one-byte position uvarints.
func minimalEntries(n int) []*core.Entry {
	out := make([]*core.Entry, n)
	for i := range out {
		out[i] = &core.Entry{LogID: 7, Timestamp: int64(1000 + i), Timestamped: true, Block: i % 100, Index: i % 50}
	}
	return out
}

// sameEntries reports whether two batches hold the same entries (an empty
// and a nil Data are the same data).
func sameEntries(a, b []*core.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := *a[i], *b[i]
		if len(x.Data) == 0 && len(y.Data) == 0 {
			x.Data, y.Data = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// TestBatchCountTwoBytes: a batch of 128 entries or more has a two-byte
// uvarint count, which the fill loop writes and the decoder reads back, and
// the smallest entries fill it exactly (the decoder's count bound is tight).
func TestBatchCountTwoBytes(t *testing.T) {
	entries := minimalEntries(200)
	i := 0
	step := func(context.Context) (*core.Entry, error) {
		if i == len(entries) {
			return nil, io.EOF
		}
		i++
		return entries[i-1], nil
	}
	rep := fillEntries(context.Background(), step, true, MaxBatchEntries, nil)
	if rep.status != StatusOK || !bytes.Equal(rep.head, encodeBatch(entries)) {
		t.Fatalf("fill loop: status %d, %d bytes, want the %d-byte encoding", rep.status, len(rep.head), len(encodeBatch(entries)))
	}
	if !bytes.Equal(rep.head[:2], []byte{0xC8, 0x01} /* 200 */) || len(rep.head) != 2+len(entries)*minEntryBytes {
		t.Fatalf("batch of %d minimal entries: count bytes %x, %d bytes in all", len(entries), rep.head[:2], len(rep.head))
	}
	got, err := DecodeEntryBatch(newReader(rep.head))
	if err != nil || !sameEntries(entryPtrs(got), entries) {
		t.Fatalf("decoded %d entries, %v; want the %d sent", len(got), err, len(entries))
	}
	// One byte short of the last entry: the count no longer fits the bytes.
	if _, err := DecodeEntryBatch(newReader(rep.head[:len(rep.head)-1])); err == nil || !strings.Contains(err.Error(), "batch count") {
		t.Fatalf("a count the bytes cannot back: %v", err)
	}
}

// TestBatchCountOneByteOldServer: a server capped at 64 entries wrote the
// count as one byte. For any count below 128 that is the uvarint, so what it
// sends is byte for byte what this server sends, and decodes the same.
func TestBatchCountOneByteOldServer(t *testing.T) {
	for _, n := range []int{1, 63, 64} {
		entries := minimalEntries(n)
		old := []byte{byte(n)}
		for _, e := range entries {
			old = append(old, EncodeEntry(e)...)
		}
		if !bytes.Equal(old, encodeBatch(entries)) {
			t.Fatalf("%d entries: a one-byte count differs from the uvarint", n)
		}
		got, err := DecodeEntryBatch(newReader(old))
		if err != nil || !sameEntries(entryPtrs(got), entries) {
			t.Fatalf("%d entries behind a one-byte count: decoded %d, %v", n, len(got), err)
		}
	}
}

func TestDecodeEntryBoundsExtraIDs(t *testing.T) {
	// An extra-id count far beyond the payload must fail before allocating.
	e := &core.Entry{LogID: 1}
	enc := appendEntryHead(nil, e)
	enc = enc[:len(enc)-2]                          // drop nExtra(0) and the data length
	enc = append(enc, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F) // nExtra = 2^32-1
	if _, err := DecodeEntry(newReader(enc)); err == nil {
		t.Fatal("oversize extra-id count accepted")
	}
}

// TestAppendReplyAllocatesOnlyItsHead: mapping a successful append to its
// reply allocates the 8-byte timestamp head and nothing else — no error
// probe — and a degraded notice still maps to StatusDegraded.
func TestAppendReplyAllocatesOnlyItsHead(t *testing.T) {
	var rep reply
	if allocs := testing.AllocsPerRun(100, func() { rep = appendReply(42, nil) }); allocs != 1 {
		t.Errorf("appendReply(ts, nil) allocated %.1f times, want 1 (its head)", allocs)
	}
	if rep.status != StatusOK || len(rep.head) != 8 {
		t.Errorf("appendReply(ts, nil) = status %d, %d-byte head", rep.status, len(rep.head))
	}
	if rep := appendReply(42, &core.DegradedError{Relocated: []int{1}}); rep.status != StatusDegraded {
		t.Errorf("a degraded append replied status %d, want StatusDegraded", rep.status)
	}
}
