package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

var errTestPayload = errors.New("test payload")

// TestReaderConsumes pins the Reader's contract read by read: a read that
// succeeds consumes exactly its encoding and Len says so; a read cut short
// consumes nothing of the value it could not read, fails naming its kind, and
// every later read returns the zero value and consumes nothing. Each read is also tried at the very
// end of a payload it has already partly consumed, so a fast path that skips
// a bounds check panics here.
func TestReaderConsumes(t *testing.T) {
	type read struct {
		name string
		enc  []byte // one value's encoding
		want any
		kind string // the error text when it is cut short
		do   func(r *Reader) any
	}
	prefixed := append(PutUvarint(nil, 3), "abc"...)
	reads := []read{
		{"byte", []byte{0xAB}, byte(0xAB), "byte", func(r *Reader) any { return r.Byte() }},
		{"uint16", PutUint16(nil, 0xBEEF), uint16(0xBEEF), "uint16", func(r *Reader) any { return r.Uint16() }},
		{"uint32", PutUint32(nil, 0xDEADBEEF), uint32(0xDEADBEEF), "uint32", func(r *Reader) any { return r.Uint32() }},
		{"uint64", PutUint64(nil, 1<<60|7), uint64(1<<60 | 7), "uint64", func(r *Reader) any { return r.Uint64() }},
		{"int64", PutUint64(nil, ^uint64(4)), int64(-5), "int64", func(r *Reader) any { return r.Int64() }},
		{"uvarint, one byte", PutUvarint(nil, 0x7F), uint64(0x7F), "uvarint", func(r *Reader) any { return r.Uvarint() }},
		{"uvarint, zero", PutUvarint(nil, 0), uint64(0), "uvarint", func(r *Reader) any { return r.Uvarint() }},
		{"uvarint, two bytes", PutUvarint(nil, 0x80), uint64(0x80), "uvarint", func(r *Reader) any { return r.Uvarint() }},
		{"uvarint, ten bytes", PutUvarint(nil, ^uint64(0)), ^uint64(0), "uvarint", func(r *Reader) any { return r.Uvarint() }},
		{"bounded", PutUvarint(nil, 300), uint32(300), "uvarint", func(r *Reader) any { return r.Bounded(300, "range") }},
		{"view", prefixed, "abc", "bytes body", func(r *Reader) any { return string(r.View()) }},
		{"bytes", prefixed, "abc", "bytes body", func(r *Reader) any { return string(r.Bytes()) }},
		{"string", prefixed, "abc", "string body", func(r *Reader) any { return r.String() }},
		{"fixed", []byte("abcde"), "abcde", "head", func(r *Reader) any { return string(r.Fixed(5, "head")) }},
	}
	zero := func(v any) any {
		switch v.(type) {
		case byte:
			return byte(0)
		case uint16:
			return uint16(0)
		case uint32:
			return uint32(0)
		case uint64:
			return uint64(0)
		case int64:
			return int64(0)
		}
		return ""
	}
	const prefix = 0x42 // a one-byte uvarint read before the value
	for _, rd := range reads {
		// Whole: a prefix, the value, and nothing after it.
		payload := append([]byte{prefix}, rd.enc...)
		r := NewReader(payload, errTestPayload)
		if v := r.Uvarint(); v != prefix || r.Len() != len(rd.enc) {
			t.Fatalf("%s: prefix read %d, Len %d, want %d and %d", rd.name, v, r.Len(), prefix, len(rd.enc))
		}
		if got := rd.do(r); got != rd.want || r.Err() != nil || r.Len() != 0 {
			t.Errorf("%s: read %v (err %v), Len %d after it; want %v, nil, 0", rd.name, got, r.Err(), r.Len(), rd.want)
		}
		// At the end of a payload it consumed: nothing left to read.
		if got := rd.do(r); got != zero(rd.want) || r.Err() == nil || r.Len() != 0 {
			t.Errorf("%s at the end of the payload: read %v, err %v, Len %d", rd.name, got, r.Err(), r.Len())
		}

		// Cut at every length short of the whole value.
		for cut := 0; cut < len(rd.enc); cut++ {
			r := NewReader(append([]byte{prefix}, rd.enc[:cut]...), errTestPayload)
			r.Uvarint()
			got := rd.do(r)
			err := r.Err()
			if got != zero(rd.want) || err == nil {
				t.Errorf("%s cut to %d bytes: read %v, err %v; want the zero value and an error", rd.name, cut, got, err)
				continue
			}
			// A length-prefixed read is two values: a prefix cut short fails
			// as a uvarint, and a whole prefix stays consumed when the body
			// falls short. Any other read consumes nothing.
			kind, consumed := rd.kind, 0
			if strings.HasSuffix(rd.kind, " body") {
				if kind = "uvarint"; cut >= 1 {
					kind, consumed = rd.kind, 1
				}
			}
			if !errors.Is(err, errTestPayload) || !strings.HasSuffix(err.Error(), ": "+kind) {
				t.Errorf("%s cut to %d bytes: err %q, want %q wrapped", rd.name, cut, err, kind)
			}
			if r.Len() != cut-consumed {
				t.Errorf("%s cut to %d bytes: Len %d after the failure, want %d", rd.name, cut, r.Len(), cut-consumed)
			}
			// Sticky: every later read fails the same way and moves nothing.
			left := r.Len()
			for _, later := range reads {
				if v := later.do(r); v != zero(later.want) || r.Len() != left || r.Err() != err {
					t.Errorf("%s cut to %d bytes, then %s: read %v, Len %d, err %v", rd.name, cut, later.name, v, r.Len(), r.Err())
				}
			}
		}
	}
}

// TestReaderViewAliasesPayload: View and Fixed return subslices of the
// payload, Bytes a copy; none of them copies on the way.
func TestReaderViewAliasesPayload(t *testing.T) {
	payload := append(PutUvarint(nil, 3), "abcdef"...)
	r := NewReader(payload, errTestPayload)
	v := r.View()
	f := r.Fixed(2, "pair")
	if &v[0] != &payload[1] || &f[0] != &payload[4] || r.Len() != 1 {
		t.Fatalf("View and Fixed did not alias the payload (Len %d)", r.Len())
	}
	r = NewReader(payload, errTestPayload)
	b := r.Bytes()
	if !bytes.Equal(b, []byte("abc")) || &b[0] == &payload[1] {
		t.Fatal("Bytes did not copy")
	}
	if r.Fixed(-1, "negative"); r.Err() == nil || r.Len() != 3 {
		t.Fatalf("Fixed(-1): err %v, Len %d", r.Err(), r.Len())
	}
	if n := testing.AllocsPerRun(100, func() {
		r := Reader{buf: payload, sentinel: errTestPayload}
		r.View()
		r.Fixed(2, "pair")
		r.Byte()
	}); n != 0 {
		t.Fatalf("reads allocated %.0f times", n)
	}
}
