package core

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"clio/internal/blockfmt"

	"clio/internal/volume"
	"clio/internal/wodev"
)

// buildMultiVolume writes enough to span several small volumes and returns
// the devices in order.
func buildMultiVolume(t *testing.T, entries int) ([]*wodev.MemDevice, Options, uint16, []string) {
	t.Helper()
	devs := []*wodev.MemDevice{wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 24})}
	now := int64(0)
	opt := Options{
		BlockSize: 256, Degree: 4,
		Now: func() int64 { now += 1000; return now },
		Allocate: func(_ volume.SeqID, _ uint32, _ uint64, blockSize int) (wodev.Device, error) {
			d := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 24})
			devs = append(devs, d)
			return d, nil
		},
	}
	s, err := New(devs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateLog("/span", 0o644, "owner")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateLog("/span/sub", 0, ""); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < entries; i++ {
		p := fmt.Sprintf("payload-%03d-%s", i, "xxxxxxxxxxxxxxxxxxxx")
		if _, err := s.Append(id, []byte(p), AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(devs) < 3 {
		t.Fatalf("only %d volumes; want >= 3", len(devs))
	}
	return devs, opt, id, want
}

func TestOpenWithOnlyNewestVolume(t *testing.T) {
	devs, opt, id, want := buildMultiVolume(t, 120)

	// Open with only the NEWEST volume: the catalog snapshot carried onto
	// it must reconstruct the log-file table (§2.1: only the newest volume
	// is assumed on-line).
	newest := devs[len(devs)-1]
	s, err := Open([]wodev.Device{newest}, opt)
	if err != nil {
		t.Fatalf("open newest-only: %v", err)
	}
	defer s.Close()
	got, err := s.Resolve("/span")
	if err != nil || got != id {
		t.Fatalf("Resolve after offline open: %d, %v", got, err)
	}
	if _, err := s.Resolve("/span/sub"); err != nil {
		t.Errorf("sublog lost: %v", err)
	}
	d, err := s.Stat("/span")
	if err != nil || d.Owner != "owner" || d.Perms != 0o644 {
		t.Errorf("snapshot descriptor: %+v, %v", d, err)
	}

	// Entries on the offline volumes are unreachable but the tail of the
	// log (on the newest volume) reads fine.
	cur, err := s.OpenCursor("/span")
	if err != nil {
		t.Fatal(err)
	}
	var visible []string
	for {
		e, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		visible = append(visible, string(e.Data))
	}
	if len(visible) == 0 || len(visible) >= len(want) {
		t.Fatalf("visible entries with offline volumes: %d of %d", len(visible), len(want))
	}
	// The visible entries are the final suffix.
	for i, v := range visible {
		if want[len(want)-len(visible)+i] != v {
			t.Fatalf("visible[%d] = %q", i, v)
		}
	}

	// New writes continue on the active volume.
	if _, err := s.Append(id, []byte("after-offline-open"), AppendOptions{Forced: true}); err != nil {
		t.Fatal(err)
	}

	// Opening with every volume of the sequence restores full history.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	vols := make([]wodev.Device, len(devs))
	for i, d := range devs {
		vols[i] = d
	}
	s, err = Open(vols, opt)
	if err != nil {
		t.Fatalf("open all volumes: %v", err)
	}
	defer s.Close()
	cur2, _ := s.OpenCursor("/span")
	var all []string
	for {
		e, err := cur2.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, string(e.Data))
	}
	wantAll := append(append([]string{}, want...), "after-offline-open")
	if fmt.Sprint(all) != fmt.Sprint(wantAll) {
		t.Fatalf("after remount: %d vs %d entries", len(all), len(wantAll))
	}
}

func TestMountRejectsForeignVolume(t *testing.T) {
	devs, opt, _, _ := buildMultiVolume(t, 60)
	// A volume from a different sequence.
	foreignDev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 24})
	now := int64(1)
	s2, err := New(foreignDev, Options{BlockSize: 256, Degree: 4,
		Now: func() int64 { now += 500; return now }})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s, err := Open([]wodev.Device{foreignDev, devs[len(devs)-1]}, opt)
	if err == nil {
		s.Close()
	}
	if !errors.Is(err, volume.ErrSequenceMismatch) {
		t.Errorf("open with a foreign volume: %v, want %v", err, volume.ErrSequenceMismatch)
	}
}

func TestVolumeSealedFlagOnFinalBlock(t *testing.T) {
	devs, opt, _, _ := buildMultiVolume(t, 60)
	_ = opt
	// The final data block of every full (non-active) volume carries the
	// volume-sealed flag.
	for vi, d := range devs[:len(devs)-1] {
		buf := make([]byte, 256)
		last := d.Written() - 1
		if err := d.ReadBlock(last, buf); err != nil {
			t.Fatalf("vol %d: %v", vi, err)
		}
		p, err := blockfmt.Parse(buf)
		if err != nil {
			t.Fatalf("vol %d parse: %v", vi, err)
		}
		if p.Flags&blockfmt.FlagVolumeSealed == 0 {
			t.Errorf("vol %d final block lacks the volume-sealed flag", vi)
		}
	}
}
