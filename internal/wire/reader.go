package wire

import (
	"encoding/binary"
	"fmt"
)

// Reader consumes a sequential payload front to back: wire requests and
// responses, replication and stream frames, the checkpoint and compaction
// sidecars, catalog records. It is sticky — the first failure is kept, every
// later read returns the zero value and consumes nothing — so a decoder reads
// all its fields and checks Err once per message. No input can make it panic
// or allocate more than the payload's own length; a loop over a decoded count
// must still stop on Err, or it would append zero values count times.
//
// Every failure wraps the sentinel the Reader was built with, followed by the
// kind of value that was cut short ("uvarint", "bytes body") or the text given
// to Fail. Fixed-offset layouts (block images, entrymap views, the NVRAM slot,
// the volume header) do not use it: they index, they do not scan.
//
// A read advances an integer offset and writes no pointer: the payload slice
// is set once, so a decoder that makes eight reads per entry pays no write
// barrier for them.
type Reader struct {
	buf      []byte
	off      int // buf[off:] is unconsumed
	sentinel error
	err      error
}

// NewReader reads payload; every error it reports wraps sentinel.
func NewReader(payload []byte, sentinel error) *Reader {
	return &Reader{buf: payload, sentinel: sentinel}
}

// Err returns the first failure, nil while every read succeeded.
func (r *Reader) Err() error { return r.err }

// Fail records a failure the caller found (a count or id out of range) unless
// an earlier one is already kept.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, what)
	}
}

// Len returns the unconsumed byte count.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// take consumes n bytes, or fails naming kind.
func (r *Reader) take(n uint64, kind string) []byte {
	if r.err != nil || n > uint64(r.Len()) {
		r.Fail(kind)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Fixed consumes n bytes of a fixed-width layout, or fails with what, and
// returns them as a subslice of the payload: a decoder reads several
// fixed-width fields with one bounds check.
func (r *Reader) Fixed(n int, what string) []byte {
	return r.take(uint64(n), what) // a negative n is huge, and fails
}

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 { // one byte: a count, an ordinal, a short length
		r.off++
		return uint64(r.buf[r.off-1])
	}
	v, n, err := Uvarint(r.buf[r.off:])
	if err != nil {
		r.Fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Bounded consumes an unsigned varint that must not exceed max — an ordinal,
// id or count narrower than its encoding — and fails with what when it does.
func (r *Reader) Bounded(max uint32, what string) uint32 {
	v := r.Uvarint()
	if v > uint64(max) {
		r.Fail(what)
		return 0
	}
	return uint32(v)
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

// Uint16 consumes a little-endian uint16.
func (r *Reader) Uint16() uint16 {
	if b := r.take(2, "uint16"); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// Uint32 consumes a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if b := r.take(4, "uint32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 consumes a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if b := r.take(8, "uint64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Int64 consumes a little-endian int64.
func (r *Reader) Int64() int64 {
	if b := r.take(8, "int64"); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// View consumes a uvarint-length-prefixed byte slice and returns it as a
// subslice of the payload, for a caller that decodes it before the payload
// goes away.
func (r *Reader) View() []byte {
	return r.take(r.Uvarint(), "bytes body")
}

// Bytes consumes a uvarint-length-prefixed byte slice (copied).
func (r *Reader) Bytes() []byte {
	b := r.View()
	if r.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// String consumes a uvarint-length-prefixed string.
func (r *Reader) String() string {
	return string(r.take(r.Uvarint(), "string body"))
}
