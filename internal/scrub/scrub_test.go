package scrub

import (
	"fmt"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/volume"
	"clio/internal/wodev"
)

func buildVolume(t *testing.T, entries int) (*core.Service, *wodev.MemDevice, core.Options) {
	t.Helper()
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 13})
	now := int64(0)
	opt := core.Options{BlockSize: 256, Degree: 4,
		Now: func() int64 { now += 1000; return now }}
	svc, err := core.New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.CreateLog("/a", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.CreateLog("/b", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		id := a
		if i%3 == 0 {
			id = b
		}
		if _, err := svc.Append(id, []byte(fmt.Sprintf("entry-%04d", i)), core.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	return svc, dev, opt
}

func TestScrubCleanVolume(t *testing.T) {
	svc, dev, _ := buildVolume(t, 300)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Volumes([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("unexpected problem: %s", p)
		}
	}
	if rep.Blocks == 0 || rep.Readable != rep.Blocks {
		t.Errorf("blocks=%d readable=%d", rep.Blocks, rep.Readable)
	}
	if rep.EntrymapEntries == 0 {
		t.Error("no entrymap entries verified")
	}
	if rep.CatalogRecords != 2 {
		t.Errorf("catalog records = %d", rep.CatalogRecords)
	}
}

func TestScrubCleanWithFragmentChains(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	now := int64(0)
	opt := core.Options{BlockSize: 256, Degree: 4,
		Now: func() int64 { now += 1000; return now }}
	svc, err := core.New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := svc.CreateLog("/frag", 0, "")
	big := make([]byte, 900) // spans several 256-byte blocks
	for i := 0; i < 10; i++ {
		if _, err := svc.Append(id, big, core.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Volumes([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("problem: %s", p)
		}
	}
}

func TestScrubDetectsDamage(t *testing.T) {
	svc, dev, _ := buildVolume(t, 300)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, 256)
	for i := range garbage {
		garbage[i] = 0xA5
	}
	if err := dev.Damage(6, garbage); err != nil { // data block 5
		t.Fatal(err)
	}
	rep, err := Volumes([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("damage not detected")
	}
	if rep.Damaged != 1 {
		t.Errorf("Damaged = %d", rep.Damaged)
	}
	foundBad := false
	for _, p := range rep.Problems {
		if p.Kind == "bad-block" && p.Block == 5 {
			foundBad = true
		}
	}
	if !foundBad {
		t.Errorf("no bad-block problem for block 5: %v", rep.Problems)
	}
}

func TestScrubRepairInvalidates(t *testing.T) {
	svc, dev, opt := buildVolume(t, 300)
	svc.Crash()
	garbage := make([]byte, 256)
	for i := range garbage {
		garbage[i] = 0x3C
	}
	if err := dev.Damage(6, garbage); err != nil {
		t.Fatal(err)
	}
	rep, err := Volumes([]wodev.Device{dev}, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("Repaired = %d", rep.Repaired)
	}
	// A second scrub sees the block as invalidated, not damaged.
	rep2, err := Volumes([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Invalidated != 1 || rep2.Damaged != 0 {
		t.Errorf("after repair: invalidated=%d damaged=%d", rep2.Invalidated, rep2.Damaged)
	}
	// And the service still opens and reads the surviving entries.
	svc2, err := core.Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	cur, err := svc2.OpenCursor("/a")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := cur.Next(); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		t.Error("no entries readable after repair")
	}
}

func TestScrubMultiVolume(t *testing.T) {
	devs := []*wodev.MemDevice{wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 16})}
	now := int64(0)
	opt := core.Options{
		BlockSize: 256, Degree: 4,
		Now: func() int64 { now += 1000; return now },
		Allocate: func(_ volume.SeqID, _ uint32, _ uint64, blockSize int) (wodev.Device, error) {
			d := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: 16})
			devs = append(devs, d)
			return d, nil
		},
	}
	svc, err := core.New(devs[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := svc.CreateLog("/x", 0, "")
	for i := 0; i < 120; i++ {
		if _, err := svc.Append(id, make([]byte, 100), core.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if len(devs) < 2 {
		t.Fatal("expected multiple volumes")
	}
	all := make([]wodev.Device, len(devs))
	for i, d := range devs {
		all[i] = d
	}
	rep, err := Volumes(all, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("problem: %s", p)
		}
	}
}

func TestScrubEmptyArgs(t *testing.T) {
	if _, err := Volumes(nil, Options{}); err == nil {
		t.Error("no devices accepted")
	}
}

func TestUsageAccounting(t *testing.T) {
	svc, dev, _ := buildVolume(t, 90)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Volumes([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]LogUsage{}
	for _, u := range rep.Usage {
		byPath[u.Path] = u
	}
	a, b := byPath["/a"], byPath["/b"]
	if a.Entries != 60 || b.Entries != 30 {
		t.Errorf("entries: /a=%d /b=%d", a.Entries, b.Entries)
	}
	// Every entry is "entry-%04d" = 10 bytes.
	if a.Bytes != 600 || b.Bytes != 300 {
		t.Errorf("bytes: /a=%d /b=%d", a.Bytes, b.Bytes)
	}
	if _, ok := byPath["/.catalog"]; !ok {
		t.Error("system logs missing from usage")
	}
}

// TestScrubCleanWithCheckpoints: recovery checkpoints are ordinary entries
// in a reserved system log file, so a volume written under the checkpoint
// policy (including the clean-Close checkpoint) must scrub clean with no
// special cases.
func TestScrubCleanWithCheckpoints(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 13})
	now := int64(0)
	opt := core.Options{BlockSize: 256, Degree: 4, CheckpointInterval: 8,
		Now: func() int64 { now += 1000; return now }}
	svc, err := core.New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/ck", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := svc.Append(id, []byte(fmt.Sprintf("entry-%04d", i)), core.AppendOptions{Forced: i%5 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if svc.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoints emitted")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Volumes([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, p := range rep.Problems {
			t.Errorf("problem: %s", p)
		}
	}
	if rep.EntrymapEntries == 0 {
		t.Error("no entrymap entries verified")
	}
}

// TestScrubChainAcrossInvalidatedBlock pins the §2.3.2 slide-past rule in the
// scrubber: when the writer finds the next block damaged it invalidates it
// and slides the staged contents — including the continuation of an entry
// fragmented across the boundary — to the block after. The service reads
// such a chain whole, so fsck must not call its continuation an orphan.
func TestScrubChainAcrossInvalidatedBlock(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 1 << 12})
	now := int64(0)
	opt := core.Options{BlockSize: 512, Degree: 4,
		Now: func() int64 { now += 1000; return now }}
	svc, err := core.New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/slide", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	add := func(n int) {
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("%04d-%s", len(want), strings.Repeat("x", 183)) // 188 bytes
			if _, err := svc.Append(id, []byte(p), core.AppendOptions{}); err != nil && !core.IsDegraded(err) {
				t.Fatal(err)
			}
			want = append(want, p)
		}
	}
	add(14)
	// The block the writer will reach next is damaged: it must be invalidated
	// and slid past while an entry is fragmented across it.
	if err := dev.Damage(dev.Written(), nil); err != nil {
		t.Fatal(err)
	}
	add(10)
	if got := svc.Stats().DeadBlocks; got == 0 {
		t.Fatal("no block was invalidated and slid past: the test is vacuous")
	}
	cur, err := svc.OpenCursor("/slide")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		e, err := cur.Next()
		if err != nil {
			t.Fatalf("service lost entry %d of %d: %v", i, len(want), err)
		}
		if string(e.Data) != w {
			t.Fatalf("entry %d: got %.8q want %.8q", i, e.Data, w)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Volumes([]wodev.Device{dev}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalidated != 1 {
		t.Errorf("Invalidated = %d, want 1", rep.Invalidated)
	}
	for _, p := range rep.Problems {
		t.Errorf("problem on a volume the service reads whole: %s", p)
	}
}
