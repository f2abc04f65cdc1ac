package blockfmt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"clio/internal/wire"
)

func TestBuildParseRoundTrip(t *testing.T) {
	b, err := NewBuilder(1024, 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{LogID: 4, Form: FormFull, AttrFlags: AttrForced, Timestamp: 1000, Data: []byte("first entry")},
		{LogID: 5, Form: FormMinimal, Data: []byte("second")},
		{LogID: 4, Form: FormMinimal, Data: nil}, // null entry
		{LogID: 6, Form: FormFull, Timestamp: 2000, Data: bytes.Repeat([]byte{7}, 100), Continues: true},
	}
	for i, r := range recs {
		if err := b.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	img := b.Seal()
	if len(img) != 1024 {
		t.Fatalf("sealed image %d bytes", len(img))
	}
	p, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockIndex != 42 {
		t.Errorf("BlockIndex = %d", p.BlockIndex)
	}
	if p.FirstTimestamp != 1000 {
		t.Errorf("FirstTimestamp = %d", p.FirstTimestamp)
	}
	if p.Len() != len(recs) {
		t.Fatalf("parsed %d records, want %d", p.Len(), len(recs))
	}
	for i, want := range recs {
		got := recordOf(p, i)
		if got.LogID != want.LogID || got.Form != want.Form ||
			got.Continued != want.Continued || got.Continues != want.Continues {
			t.Errorf("record %d meta: %+v", i, got)
		}
		if want.Form == FormFull && (got.Timestamp != want.Timestamp || got.AttrFlags != want.AttrFlags) {
			t.Errorf("record %d full header: %+v", i, got)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Errorf("record %d data mismatch", i)
		}
	}
}

// overhead is the total block bytes a record consumes: header bytes, data
// bytes and its trailer size slot.
func overhead(r Record) int { return r.HeaderLen() + len(r.Data) + 2 }

func TestHeaderSizesMatchPaper(t *testing.T) {
	// §2.2: minimal header is 4 bytes (2 in payload + 2-byte size slot);
	// §3.2: the complete timestamped header is 14 bytes.
	min := Record{LogID: 1, Form: FormMinimal}
	if got := overhead(min); got != 4 {
		t.Errorf("minimal header overhead = %d, want 4", got)
	}
	full := Record{LogID: 1, Form: FormFull, Timestamp: 1}
	if got := overhead(full); got != 14 {
		t.Errorf("full header overhead = %d, want 14", got)
	}
}

func TestBuilderCapacityAccounting(t *testing.T) {
	b, _ := NewBuilder(256, 0)
	free := b.Free()
	if free != 256-FooterSize-2 {
		t.Errorf("initial Free = %d", free)
	}
	if b.FreeData(FormMinimal) != free-2 {
		t.Errorf("FreeData minimal = %d", b.FreeData(FormMinimal))
	}
	if b.FreeData(FormFull) != free-12 {
		t.Errorf("FreeData full = %d", b.FreeData(FormFull))
	}
	// Fill exactly.
	data := make([]byte, b.FreeData(FormMinimal))
	if err := b.Append(Record{LogID: 1, Form: FormMinimal, Data: data}); err != nil {
		t.Fatalf("exact fill: %v", err)
	}
	if b.Free() != 0 {
		t.Errorf("Free after exact fill = %d", b.Free())
	}
	if err := b.Append(Record{LogID: 1, Form: FormMinimal}); !errors.Is(err, ErrNoSpace) {
		t.Errorf("append to full block: %v", err)
	}
	p, err := Parse(b.Seal())
	if err != nil || p.Len() != 1 || len(recordOf(p, 0).Data) != len(data) {
		t.Fatalf("parse exact-fill block: %v", err)
	}
}

func TestMaxData(t *testing.T) {
	// An empty block holds all but its footer, one size slot and a header.
	b, _ := NewBuilder(1024, 0)
	if got := b.FreeData(FormMinimal); got != 1024-FooterSize-4 {
		t.Errorf("empty builder FreeData minimal = %d", got)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	garbage := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(garbage)
	if _, err := Parse(garbage); err == nil {
		t.Error("garbage block parsed")
	}
	if _, err := Parse(make([]byte, 64)); err == nil {
		t.Error("undersized block parsed")
	}
	// All-ones (invalidated) block must not parse.
	ones := bytes.Repeat([]byte{0xFF}, 1024)
	if _, err := Parse(ones); !errors.Is(err, ErrBadMagic) {
		t.Errorf("invalidated block: %v", err)
	}
}

func TestParseDetectsBitFlips(t *testing.T) {
	b, _ := NewBuilder(512, 3)
	if err := b.Append(Record{LogID: 9, Form: FormFull, Timestamp: 5, Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	img := b.Seal()
	for _, off := range []int{0, 5, 100, 511 - FooterSize, 500} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x10
		if _, err := Parse(bad); err == nil {
			t.Errorf("bit flip at %d undetected", off)
		}
	}
}

func TestSealIdempotentForStagedTail(t *testing.T) {
	// The NVRAM tail re-seals the same builder as entries arrive; sealing
	// must not consume or corrupt builder state.
	b, _ := NewBuilder(512, 7)
	if err := b.Append(Record{LogID: 4, Form: FormMinimal, Data: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	img1 := b.Seal()
	if err := b.Append(Record{LogID: 4, Form: FormMinimal, Data: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	img2 := b.Seal()
	p1, err := Parse(img1)
	if err != nil || p1.Len() != 1 {
		t.Fatalf("img1: %v", err)
	}
	p2, err := Parse(img2)
	if err != nil || p2.Len() != 2 {
		t.Fatalf("img2: %v", err)
	}
	if !bytes.Equal(recordOf(p2, 1).Data, []byte("b")) {
		t.Error("second record corrupted by reseal")
	}
}

func TestBuilderReset(t *testing.T) {
	b, _ := NewBuilder(512, 1)
	b.SetFlags(FlagEntrymapBoundary)
	if err := b.Append(Record{LogID: 4, Form: FormMinimal, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	b.Reset(2)
	if b.Count() != 0 || len(b.payload) != 0 || b.flags != 0 {
		t.Error("Reset left state")
	}
	if _, ok := b.FirstTimestamp(); ok {
		t.Error("Reset left timestamp")
	}
	if err := b.Append(Record{LogID: 5, Form: FormMinimal, Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(b.Seal())
	if err != nil || p.BlockIndex != 2 || p.Len() != 1 {
		t.Fatalf("post-reset block: %+v, %v", p, err)
	}
}

func TestFooterTimestampFromMinimalEntries(t *testing.T) {
	b, _ := NewBuilder(512, 0)
	b.SetFirstTimestamp(777)
	if err := b.Append(Record{LogID: 4, Form: FormMinimal, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(b.Seal())
	if err != nil || p.FirstTimestamp != 777 {
		t.Fatalf("footer ts = %d, %v", p.FirstTimestamp, err)
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	b, _ := NewBuilder(256, 0)
	b.SetFlags(FlagEntrymapBoundary | FlagSealedByForce)
	b.SetFirstTimestamp(1)
	p, err := Parse(b.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if p.Flags != FlagEntrymapBoundary|FlagSealedByForce {
		t.Errorf("flags = %x", p.Flags)
	}
}

func TestBlockSizeBounds(t *testing.T) {
	if _, err := NewBuilder(64, 0); err == nil {
		t.Error("64-byte block accepted")
	}
	if _, err := NewBuilder(32768, 0); err == nil {
		t.Error("32K block accepted")
	}
	if _, err := NewBuilder(MinBlockSize, 0); err != nil {
		t.Errorf("min block size rejected: %v", err)
	}
	if _, err := NewBuilder(MaxBlockSize, 0); err != nil {
		t.Errorf("max block size rejected: %v", err)
	}
}

func TestEmptyBlock(t *testing.T) {
	b, _ := NewBuilder(256, 9)
	p, err := Parse(b.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || p.BlockIndex != 9 {
		t.Errorf("empty block: %+v", p)
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := []int{128, 512, 1024, 4096}[rng.Intn(4)]
		b, err := NewBuilder(size, uint32(rng.Intn(1000)))
		if err != nil {
			return false
		}
		type expect struct {
			rec Record
		}
		var want []expect
		for {
			form := uint8(FormMinimal)
			if rng.Intn(2) == 0 {
				form = FormFull
			}
			avail := b.FreeData(form)
			if avail <= 0 {
				break
			}
			n := rng.Intn(avail + 1)
			data := make([]byte, n)
			rng.Read(data)
			rec := Record{
				LogID:     uint16(rng.Intn(4096)),
				Form:      form,
				AttrFlags: uint8(rng.Intn(4)),
				Timestamp: rng.Int63(),
				Continued: rng.Intn(4) == 0,
				Continues: rng.Intn(4) == 0,
				Data:      data,
			}
			if err := b.Append(rec); err != nil {
				return false
			}
			want = append(want, expect{rec})
			if rng.Intn(5) == 0 {
				break
			}
		}
		p, err := Parse(b.Seal())
		if err != nil || p.Len() != len(want) {
			return false
		}
		for i, w := range want {
			g := recordOf(p, i)
			if g.LogID != w.rec.LogID || g.Form != w.rec.Form ||
				g.Continued != w.rec.Continued || g.Continues != w.rec.Continues ||
				!bytes.Equal(g.Data, w.rec.Data) {
				return false
			}
			if w.rec.Form == FormFull && g.Timestamp != w.rec.Timestamp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSpaceOverheadFigure(t *testing.T) {
	// §2.2: with the minimal header, overhead for a d-byte entry is
	// 400/(d+4) percent — under 10% for entries above 36 bytes.
	d := 36
	rec := Record{LogID: 1, Form: FormMinimal, Data: make([]byte, d)}
	overheadPct := float64(overhead(rec)-d) / float64(d+4) * 100
	if overheadPct > 10.0 {
		t.Errorf("overhead for 36-byte entry = %.1f%%, paper says <10%%", overheadPct)
	}
}

func TestFormMultiRoundTrip(t *testing.T) {
	b, _ := NewBuilder(512, 5)
	rec := Record{
		LogID:     7,
		Form:      FormMulti,
		AttrFlags: AttrForced,
		Timestamp: 12345,
		Data:      []byte("shared entry"),
		ExtraIDs:  []uint16{9, 4000, 42},
	}
	if got, want := overhead(rec), 12+6+12+2; got != want {
		t.Errorf("multi overhead = %d, want %d", got, want)
	}
	if err := b.Append(rec); err != nil {
		t.Fatal(err)
	}
	// A minimal record after it parses fine too.
	if err := b.Append(Record{LogID: 8, Form: FormMinimal, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	p, err := Parse(b.Seal())
	if err != nil {
		t.Fatal(err)
	}
	got := recordOf(p, 0)
	if got.Form != FormMulti || got.Timestamp != 12345 || got.AttrFlags != AttrForced {
		t.Errorf("multi header: %+v", got)
	}
	if ids := got.ExtraIDs.Append(nil); len(ids) != 3 || ids[0] != 9 || ids[1] != 4000 || ids[2] != 42 {
		t.Errorf("extra ids: %v", ids)
	}
	if string(got.Data) != "shared entry" {
		t.Errorf("data: %q", got.Data)
	}
	if recordOf(p, 1).LogID != 8 {
		t.Errorf("following record: %+v", recordOf(p, 1))
	}
	if p.FirstTimestamp != 12345 {
		t.Errorf("footer ts: %d", p.FirstTimestamp)
	}
}

func TestFormMultiLimits(t *testing.T) {
	b, _ := NewBuilder(512, 0)
	too := make([]uint16, MaxExtraIDs+1)
	if err := b.Append(Record{LogID: 1, Form: FormMulti, ExtraIDs: too}); err == nil {
		t.Error("oversized extra-id list accepted")
	}
	bad := Record{LogID: 1, Form: FormMulti, ExtraIDs: []uint16{0xFFFF}}
	if err := b.Append(bad); err == nil {
		t.Error("13-bit extra id accepted")
	}
}

func TestReindex(t *testing.T) {
	b, err := NewBuilder(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(Record{LogID: 3, Form: FormFull, Timestamp: 99, Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	img := b.Seal()
	orig := append([]byte(nil), img...)

	moved, err := Reindex(img, 19, FlagVolumeSealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, orig) {
		t.Fatal("Reindex mutated its input image")
	}
	if !Validate(moved) {
		t.Fatal("reindexed image fails Validate")
	}
	p, err := Parse(moved)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockIndex != 19 {
		t.Fatalf("BlockIndex = %d, want 19", p.BlockIndex)
	}
	if p.Flags&FlagVolumeSealed == 0 {
		t.Fatal("FlagVolumeSealed not or'ed in")
	}
	if p.Len() != 1 || string(recordOf(p, 0).Data) != "payload" {
		t.Fatalf("records corrupted by Reindex: %d records", p.Len())
	}

	// No-op reindex keeps the image byte-identical.
	same, err := Reindex(img, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(same, orig) {
		t.Fatal("no-op Reindex changed the image")
	}

	// A damaged image is refused.
	bad := append([]byte(nil), img...)
	bad[0] ^= 1
	if _, err := Reindex(bad, 3, 0); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("Reindex(damaged) = %v, want ErrBadChecksum", err)
	}
}

// TestFirstTimestampAgreesWithParse: the footer accessor believes an image
// exactly when Parse does — same timestamp, same error — and allocates
// nothing doing so. The one thing it adds is saying that a block without
// entries has no first timestamp, where Parse shows an unset field.
func TestFirstTimestampAgreesWithParse(t *testing.T) {
	b, _ := NewBuilder(512, 3)
	empty := b.Seal()
	if err := b.Append(Record{LogID: 9, Form: FormFull, Timestamp: 77_000, Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	good := b.Seal()
	mutate := func(f func(img []byte)) []byte {
		img := append([]byte(nil), good...)
		f(img)
		return img
	}
	reseal := func(img []byte) { putU32(img[len(img)-4:], wire.Checksum(img[:len(img)-4])) }
	for _, tc := range []struct {
		name  string
		img   []byte
		ok    bool  // the image is believed and dates its block
		empty bool  // believed, but holds no entry
		is    error // the sentinel a rejected image must match, if there is one
	}{
		{name: "good block", img: good, ok: true},
		{name: "block without entries", img: empty, empty: true},
		{name: "bad magic", img: mutate(func(img []byte) { img[len(img)-FooterSize] ^= 1; reseal(img) }), is: ErrBadMagic},
		{name: "bad version", img: mutate(func(img []byte) { img[len(img)-FooterSize+2]++; reseal(img) })},
		{name: "flipped payload bit", img: mutate(func(img []byte) { img[3] ^= 0x10 }), is: ErrBadChecksum},
		{name: "flipped timestamp bit", img: mutate(func(img []byte) { img[len(img)-FooterSize+6] ^= 1 }), is: ErrBadChecksum},
		{name: "short image", img: good[:MinBlockSize-1], is: ErrBlockSize},
		{name: "all ones", img: bytes.Repeat([]byte{0xFF}, 512), is: ErrBadMagic},
	} {
		p, perr := Parse(tc.img)
		ts, ok, err := FirstTimestamp(tc.img)
		rejected := !tc.ok && !tc.empty
		switch {
		case (err != nil) != rejected || (perr != nil) != rejected:
			t.Errorf("%s: FirstTimestamp error %v, Parse error %v, want rejected=%v", tc.name, err, perr, rejected)
		case rejected && (err.Error() != perr.Error() || tc.is != nil && !errors.Is(err, tc.is)):
			t.Errorf("%s: FirstTimestamp says %q, Parse says %q, want %v", tc.name, err, perr, tc.is)
		case ok != tc.ok:
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		case !rejected && (ts != p.FirstTimestamp || ok != (p.Len() > 0)):
			t.Errorf("%s: FirstTimestamp %d, %v; Parse %d with %d records", tc.name, ts, ok, p.FirstTimestamp, p.Len())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { FirstTimestamp(good) }); allocs != 0 {
		t.Errorf("FirstTimestamp allocated %.1f objects/op, want 0", allocs)
	}
}

// TestRecordViewSize pins a record's view at 64 bytes: Parsed.Record fills
// one in for each record a reader visits, so a field added here is a cost on
// every step of a scan.
func TestRecordViewSize(t *testing.T) {
	if n := unsafe.Sizeof(RecordView{}); n != 64 {
		t.Fatalf("RecordView is %d bytes, want 64", n)
	}
}

// TestEffectiveAt: a record's effective timestamp is its own full or multi
// header's, else the nearest preceding one in the block, else the footer's
// first-entry timestamp (§2.1).
func TestEffectiveAt(t *testing.T) {
	b, err := NewBuilder(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.SetFirstTimestamp(500)
	for i, r := range []Record{
		{LogID: 1, Form: FormMinimal},
		{LogID: 1, Form: FormFull, Timestamp: 700},
		{LogID: 1, Form: FormMinimal},
		{LogID: 1, Form: FormMulti, Timestamp: 900, ExtraIDs: []uint16{2}},
		{LogID: 1, Form: FormFull}, // a zero timestamp stamps nothing
	} {
		if err := b.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	p, err := Parse(b.Seal())
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{500, 700, 700, 900, 900}
	for i := range want {
		if got := p.EffectiveAt(i); got != want[i] {
			t.Errorf("EffectiveAt(%d) = %d, want %d", i, got, want[i])
		}
		for j := -1; j < len(want); j++ {
			tsj := int64(500)
			if j >= 0 {
				tsj = want[j]
			}
			if got := p.EffectiveFrom(i, j, tsj); got != want[i] {
				t.Errorf("EffectiveFrom(%d, %d, %d) = %d, want %d", i, j, tsj, got, want[i])
			}
		}
	}
}

// recordOf returns the view of record i of p.
func recordOf(p Parsed, i int) RecordView {
	var r RecordView
	p.Record(i, &r)
	return r
}
