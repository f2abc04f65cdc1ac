package volume

import (
	"errors"
	"testing"

	"clio/internal/wodev"
)

var testSeq = SeqID{1, 2, 3, 4}

func freshVolume(t *testing.T, index uint32, startOffset uint64, capacity int) *Volume {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: capacity})
	h := Header{
		Seq:         testSeq,
		Index:       index,
		StartOffset: startOffset,
		BlockSize:   512,
		N:           16,
		Created:     1234,
	}
	if err := Format(dev, h); err != nil {
		t.Fatal(err)
	}
	v, err := Mount(dev, int(index))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFormatMountRoundTrip(t *testing.T) {
	v := freshVolume(t, 3, 900, 16)
	if v.Hdr.Seq != testSeq || v.Hdr.Index != 3 || v.Hdr.StartOffset != 900 ||
		v.Hdr.BlockSize != 512 || v.Hdr.N != 16 || v.Hdr.Created != 1234 {
		t.Errorf("header round trip: %+v", v.Hdr)
	}
	if v.DataCapacity() != 15 {
		t.Errorf("DataCapacity = %d", v.DataCapacity())
	}
	if v.DeviceBlock(0) != 1 {
		t.Errorf("DeviceBlock(0) = %d", v.DeviceBlock(0))
	}
	w, err := v.DataWritten()
	if err != nil || w != 0 {
		t.Errorf("DataWritten = %d, %v", w, err)
	}
}

func TestFormatRejectsUsedDevice(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 8})
	if _, err := dev.AppendBlock(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	err := Format(dev, Header{Seq: testSeq, BlockSize: 512})
	if err == nil {
		t.Error("Format on used device accepted")
	}
}

func TestMountRejectsUnformatted(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 8})
	if _, err := Mount(dev, 0); !errors.Is(err, ErrNoHeader) {
		t.Errorf("mount empty: %v", err)
	}
	// Garbage block 0.
	g := make([]byte, 512)
	for i := range g {
		g[i] = byte(i)
	}
	if _, err := dev.AppendBlock(g); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(dev, 0); !errors.Is(err, ErrNoHeader) {
		t.Errorf("mount garbage: %v", err)
	}
}

func TestDataWrittenWithUnknownEnd(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 32, ReportEndUnknown: true})
	dev.SetReportEnd(true)
	if err := Format(dev, Header{Seq: testSeq, BlockSize: 512, N: 16}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := dev.AppendBlock(make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	dev.SetReportEnd(false)
	v, err := Mount(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := v.DataWritten()
	if err != nil || w != 5 {
		t.Errorf("DataWritten via binary search = %d, %v", w, err)
	}
}

func TestSetAddLocate(t *testing.T) {
	s := NewSet(testSeq)
	v0 := freshVolume(t, 0, 0, 11)            // data capacity 10
	v1 := freshVolume(t, 1, 10, 11)           // data capacity 10
	v2 := freshVolume(t, 2, 20, 1001)         // active
	for _, v := range []*Volume{v1, v0, v2} { // out of order on purpose
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Active() != v2 {
		t.Error("Active != newest volume")
	}
	cases := []struct {
		global int
		vol    *Volume
		local  int
	}{
		{0, v0, 0}, {9, v0, 9}, {10, v1, 0}, {19, v1, 9}, {20, v2, 0}, {500, v2, 480},
	}
	for _, c := range cases {
		v, local, err := s.Locate(c.global)
		if err != nil || v != c.vol || local != c.local {
			t.Errorf("Locate(%d) = vol %v local %d err %v", c.global, v, local, err)
		}
	}
	if _, _, err := s.Locate(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Locate(-1): %v", err)
	}
}

func TestSetOfflineGap(t *testing.T) {
	s := NewSet(testSeq)
	v0 := freshVolume(t, 0, 0, 11)
	v2 := freshVolume(t, 2, 20, 101)
	if err := s.Add(v0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v2); err != nil {
		t.Fatal(err)
	}
	// Blocks 10..19 are on the unmounted volume 1.
	if _, _, err := s.Locate(15); !errors.Is(err, ErrOffline) {
		t.Errorf("gap block: %v", err)
	}
	if v, local, err := s.Locate(25); err != nil || v != v2 || local != 5 {
		t.Errorf("post-gap block: %v %d %v", v, local, err)
	}
}

func TestSetRejectsForeignAndDuplicate(t *testing.T) {
	s := NewSet(testSeq)
	v0 := freshVolume(t, 0, 0, 11)
	if err := s.Add(v0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(v0); err == nil {
		t.Error("duplicate volume accepted")
	}
	foreign := freshVolume(t, 1, 10, 11)
	foreign.Hdr.Seq = SeqID{9, 9}
	if err := s.Add(foreign); !errors.Is(err, ErrSequenceMismatch) {
		t.Errorf("foreign volume: %v", err)
	}
}

// TestSetRejectsNonContiguous: a volume must start where its mounted
// predecessor's capacity ends — exactly next to the adjacent index, not
// before it across a gap — whichever of the two is mounted first. This is
// what a device opened at the wrong capacity trips.
func TestSetRejectsNonContiguous(t *testing.T) {
	cases := []struct {
		name   string
		first  *Volume
		second *Volume
	}{
		{"predecessor opened too large", freshVolume(t, 0, 0, 1001), freshVolume(t, 1, 10, 11)},
		{"predecessor opened too small", freshVolume(t, 0, 0, 6), freshVolume(t, 1, 10, 11)},
		{"successor mounted first", freshVolume(t, 1, 10, 11), freshVolume(t, 0, 0, 1001)},
		{"overlap across an offline volume", freshVolume(t, 0, 0, 1001), freshVolume(t, 2, 20, 11)},
	}
	for _, c := range cases {
		s := NewSet(testSeq)
		if err := s.Add(c.first); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(c.second); !errors.Is(err, ErrNotContiguous) {
			t.Errorf("%s: %v, want ErrNotContiguous", c.name, err)
		}
		if len(s.Volumes()) != 1 {
			t.Errorf("%s: the refused volume was mounted", c.name)
		}
	}
}

func TestSetRemove(t *testing.T) {
	s := NewSet(testSeq)
	v0 := freshVolume(t, 0, 0, 11)
	v1 := freshVolume(t, 1, 10, 11)
	_ = s.Add(v0)
	_ = s.Add(v1)
	if _, err := s.Remove(1); err == nil {
		t.Error("removed active volume")
	}
	got, err := s.Remove(0)
	if err != nil || got != v0 {
		t.Errorf("Remove(0) = %v, %v", got, err)
	}
	if _, err := s.Remove(0); err == nil {
		t.Error("double remove accepted")
	}
	if _, _, err := s.Locate(5); !errors.Is(err, ErrOffline) {
		t.Errorf("unmounted block: %v", err)
	}
}

func TestGlobalEnd(t *testing.T) {
	s := NewSet(testSeq)
	if end, err := s.GlobalEnd(); err != nil || end != 0 {
		t.Errorf("empty set end = %d, %v", end, err)
	}
	v0 := freshVolume(t, 0, 0, 11)
	_ = s.Add(v0)
	for i := 0; i < 3; i++ {
		if _, err := v0.Dev.AppendBlock(make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if end, err := s.GlobalEnd(); err != nil || end != 3 {
		t.Errorf("end = %d, %v", end, err)
	}
	v1 := freshVolume(t, 1, 10, 11)
	_ = s.Add(v1)
	if end, err := s.GlobalEnd(); err != nil || end != 10 {
		t.Errorf("end after successor = %d, %v (successor start offset rules)", end, err)
	}
}
