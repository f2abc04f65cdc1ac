package blockfmt

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"clio/internal/wire"
)

// refRecord is one record as refParse decodes it.
type refRecord struct {
	logID      uint16
	form       uint8
	attr       uint8
	ts         int64
	extra      []uint16
	data       []byte
	continued  bool
	continues  bool
	effectiveT int64 // the timestamp in force when it was written (§2.1)
}

// refParse is a reference decoder of the block format, written from the
// format's description alone and kept for FuzzParse: it decodes every
// record eagerly, as a parser that keeps no index would, so the two can be
// compared on whatever the fuzzer makes up.
func refParse(block []byte) ([]refRecord, bool) {
	n := len(block)
	if n < MinBlockSize || n > MaxBlockSize {
		return nil, false
	}
	le := binary.LittleEndian
	foot := block[n-FooterSize:]
	if le.Uint16(foot) != Magic || foot[2] != FormatVersion || le.Uint32(foot[18:]) != wire.Checksum(block[:n-4]) {
		return nil, false
	}
	count := int(le.Uint16(foot[4:]))
	recEnd := n - FooterSize - 2*count
	if recEnd < 0 {
		return nil, false
	}
	eff := int64(le.Uint64(foot[6:]))
	var out []refRecord
	off := 0
	for i := 0; i < count; i++ {
		slot := le.Uint16(block[n-FooterSize-2*(i+1):])
		size := int(slot & 0x3FFF)
		if off+size > recEnd || size < 2 {
			return nil, false
		}
		frag := block[off : off+size]
		off += size
		word := le.Uint16(frag)
		r := refRecord{
			logID:     word & 0x0FFF,
			form:      uint8(word >> 12),
			continued: slot&0x8000 != 0,
			continues: slot&0x4000 != 0,
		}
		body := frag[2:]
		if r.form == FormFull || r.form == FormMulti {
			if len(body) < 10 {
				return nil, false
			}
			r.attr, r.ts = body[0], int64(le.Uint64(body[2:]))
			if r.form == FormMulti {
				k := int(body[1])
				if k > MaxExtraIDs || len(body) < 10+2*k {
					return nil, false
				}
				for j := 0; j < k; j++ {
					r.extra = append(r.extra, le.Uint16(body[10+2*j:]))
				}
			}
			body = body[10+2*len(r.extra):]
			if r.ts != 0 {
				eff = r.ts
			}
		}
		r.data = body
		r.effectiveT = eff
		out = append(out, r)
	}
	return out, true
}

// goldenBlocks returns the block images of the committed golden store's
// volume (256-byte blocks; see the root package's golden store test).
func goldenBlocks(f *testing.F) [][]byte {
	vol, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-v1", "vol-00000000.clio"))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for len(vol) >= 256 {
		out = append(out, vol[:256])
		vol = vol[256:]
	}
	return out
}

// FuzzParse hardens the block parser against arbitrary media contents and
// checks it against refParse: the two accept the same images, and every view
// Record fills in of an accepted one — data, ids, flags, effective timestamp
// — is the reference's record. Whatever is accepted must also re-encode.
func FuzzParse(f *testing.F) {
	b, _ := NewBuilder(256, 3)
	_ = b.Append(Record{LogID: 4, Form: FormFull, Timestamp: 9, Data: []byte("seed")})
	_ = b.Append(Record{LogID: 5, Form: FormMulti, Timestamp: 10, ExtraIDs: []uint16{6}, Data: []byte("multi")})
	f.Add(b.Seal())
	f.Add(bytes.Repeat([]byte{0xFF}, 256))
	f.Add(make([]byte, 256))
	for _, blk := range goldenBlocks(f) {
		f.Add(blk)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		ref, ok := refParse(data)
		if ok != (err == nil) {
			t.Fatalf("Parse: %v; reference accepts: %v", err, ok)
		}
		if err != nil {
			return
		}
		if p.Len() != len(ref) {
			t.Fatalf("Parse has %d records, the reference %d", p.Len(), len(ref))
		}
		var r RecordView
		for i, w := range ref {
			p.Record(i, &r)
			if r.LogID != w.logID || r.Form != w.form || r.Continued != w.continued ||
				r.Continues != w.continues || !bytes.Equal(r.Data, w.data) ||
				!slices.Equal(r.ExtraIDs.Append(nil), w.extra) {
				t.Fatalf("record %d: view %+v, reference %+v", i, r, w)
			}
			if w.form == FormFull || w.form == FormMulti {
				if r.AttrFlags != w.attr || r.Timestamp != w.ts {
					t.Fatalf("record %d header: view %+v, reference %+v", i, r, w)
				}
			}
			if got := p.EffectiveAt(i); got != w.effectiveT {
				t.Fatalf("EffectiveAt(%d) = %d, reference %d", i, got, w.effectiveT)
			}
			if i > 0 {
				if got := p.EffectiveFrom(i, i-1, ref[i-1].effectiveT); got != w.effectiveT {
					t.Fatalf("EffectiveFrom(%d, %d) = %d, reference %d", i, i-1, got, w.effectiveT)
				}
			}
			if j := len(ref) - 1; i < j {
				if got := p.EffectiveFrom(i, j, ref[j].effectiveT); got != w.effectiveT {
					t.Fatalf("EffectiveFrom(%d, %d) = %d, reference %d", i, j, got, w.effectiveT)
				}
			}
		}
		// Accepted blocks must be internally consistent: re-append every
		// record into a fresh builder without error.
		nb, berr := NewBuilder(len(data), p.BlockIndex)
		if berr != nil {
			return
		}
		for _, w := range ref {
			if w.form > FormMulti {
				continue // unknown future forms tolerated by the parser
			}
			rec := Record{
				LogID: w.logID, Form: w.form, AttrFlags: w.attr, Timestamp: w.ts,
				Continued: w.continued, Continues: w.continues, Data: w.data, ExtraIDs: w.extra,
			}
			if err := nb.Append(rec); err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
		}
	})
}
