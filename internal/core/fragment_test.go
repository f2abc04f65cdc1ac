package core

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"clio/internal/scrub"
	"clio/internal/wodev"
)

// repairedStore writes, over 256-byte blocks, a small entry, a 1 KiB entry
// ("repaired") and a 1 KiB entry whose second fragment the writer slid past
// a damaged block ("slid"), seals everything, then damages the repaired
// entry's third block and runs an fsck repair over the device, which
// invalidates it. It returns the device and where the two large entries
// start.
func repairedStore(t *testing.T) (dev *wodev.MemDevice, opt Options, repaired, slid *Entry) {
	t.Helper()
	tc := &testClock{}
	opt = Options{BlockSize: 256, Degree: 4, Now: tc.Now}
	dev = wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 10})
	s, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, s, "/f")
	mustAppend(t, s, id, "before", AppendOptions{})
	mustAppend(t, s, id, string(bytes.Repeat([]byte{'r'}, 1024)), AppendOptions{})
	// The block after the one the tail lands on is bad: the next entry's
	// continuation slides past it (§2.3.2).
	if err := dev.Damage(dev.Written()+1, nil); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, id, string(bytes.Repeat([]byte{'s'}, 1024)), AppendOptions{})
	mustAppend(t, s, id, "after", AppendOptions{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	all := readAll(t, s, "/f")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 || len(all[1].Data) != 1024 || len(all[2].Data) != 1024 {
		t.Fatalf("before the damage the log holds %d entries", len(all))
	}
	repaired, slid = all[1], all[2]
	if rep, err := scrub.Volumes([]wodev.Device{dev}, scrub.Options{}); err != nil || !rep.Clean() || rep.Invalidated != 1 {
		t.Fatalf("before the damage: scrub %+v, %v; want clean with the one slid block", rep, err)
	}
	// Device block = global block + 1 (the volume header).
	if err := dev.Damage(repaired.Block+2+1, bytes.Repeat([]byte{0xA5}, 256)); err != nil {
		t.Fatal(err)
	}
	if rep, err := scrub.Volumes([]wodev.Device{dev}, scrub.Options{Repair: true}); err != nil || rep.Repaired != 1 {
		t.Fatalf("fsck repair: %+v, %v; want the damaged block invalidated", rep, err)
	}
	return dev, opt, repaired, slid
}

// TestRepairedMiddleFragmentIsLost: a middle fragment that an fsck repair
// invalidated after its block was written loses its entry, where it used to
// read shorter with no error. ReadAt and scrub report it lost; a cursor's
// Next and NextEach skip it as the lost entry it is (§2.3.2: a lost entry
// is no error to a cursor), and deliver no part of it. An entry whose
// fragment the writer slid past a damaged block reads whole.
func TestRepairedMiddleFragmentIsLost(t *testing.T) {
	dev, opt, repaired, slid := repairedStore(t)
	s, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []string{"before", string(slid.Data), "after"}

	c, err := s.OpenCursor("/f")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		e, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(e.Data))
	}
	if !slices.Equal(got, want) {
		t.Errorf("Next delivered %v; want the lost entry skipped: %v", lens(got), lens(want))
	}

	c, err = s.OpenCursor("/f")
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	n, err := c.NextEach(10, func(e *Entry) bool { got = append(got, string(e.Data)); return true })
	if n != len(want) || err != io.EOF || !slices.Equal(got, want) {
		t.Errorf("NextEach delivered %v, %v; want the lost entry skipped: %v", lens(got), err, lens(want))
	}

	if e, err := s.ReadAt(repaired.Block, repaired.Index); !errors.Is(err, ErrLost) {
		t.Errorf("ReadAt of the repaired entry: %d bytes, %v; want ErrLost", entryLen(e), err)
	}
	if e, err := s.ReadAt(slid.Block, slid.Index); err != nil || !bytes.Equal(e.Data, slid.Data) {
		t.Errorf("ReadAt of the slid entry: %d bytes, %v; want it whole", entryLen(e), err)
	}

	rep, err := scrub.Volumes([]wodev.Device{dev}, scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, p := range rep.Problems {
		if p.Kind == "torn-chain" && p.Block == repaired.Block+3 {
			torn++
		}
	}
	if torn != 1 || len(rep.Problems) != 1 {
		t.Errorf("scrub after the repair: %v; want one torn chain at block %d", rep.Problems, repaired.Block+3)
	}
}

func lens(entries []string) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = len(e)
	}
	return out
}

func entryLen(e *Entry) int {
	if e == nil {
		return 0
	}
	return len(e.Data)
}
