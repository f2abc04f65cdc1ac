package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"clio/internal/blockfmt"
	"clio/internal/core"
	"clio/internal/scrub"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// TestSealedReadPathAgreement runs one table of fragment-chain shapes through
// every reader of sealed blocks — the service (core.Service.ReadAt over its
// cache and snapshot), a follower (readAt over the bare replicated device)
// and the scrubber (its memoized reads) — and requires the same bytes, or
// the same lost verdict, from each. The shapes: unfragmented, a 2- and a
// 4-block chain, a chain across a block the writer invalidated and slid
// past (a client entry and a catalog record, so the scrubber's own replay
// crosses one too), a chain running off the written end, a chain whose
// continuation is missing, a chain into a damaged block, and a chain whose
// middle fragment an fsck repair invalidated.
func TestSealedReadPathAgreement(t *testing.T) {
	const bs = 256
	now := int64(0)
	opt := core.Options{BlockSize: bs, Degree: 4,
		Now: func() int64 { now += 1000; return now }}
	base := wodev.NewMem(wodev.MemOptions{BlockSize: bs, Capacity: 1 << 10})
	svc, err := core.New(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateLog("/t", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Entry k is sizes[k] bytes of the letter 'a'+k, so a block's share of
	// an entry is recognisable without following any chain.
	sizes := []int{20, 300, 800, 24, 700, 30, 520, 16}
	const (
		plain, chain2, chain4, slid, tail = 0, 1, 2, 4, 6
	)
	want := make([][]byte, len(sizes))
	for k, n := range sizes {
		want[k] = bytes.Repeat([]byte{byte('a' + k)}, n)
		if k == slid {
			// The block after the one the tail will land on is bad: the
			// entry starts in the tail, and its continuation must slide.
			if err := base.Damage(base.Written()+1, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.Append(id, want[k], core.AppendOptions{}); err != nil && !core.IsDegraded(err) {
			t.Fatal(err)
		}
	}
	// The same for a catalog record: a creation whose owner field makes the
	// record span blocks, across a second bad block.
	if err := base.Damage(base.Written()+1, nil); err != nil {
		t.Fatal(err)
	}
	late, err := svc.CreateLog("/t/late", 0, strings.Repeat("o", 600))
	if err != nil && !core.IsDegraded(err) {
		t.Fatal(err)
	}
	if _, err := svc.Append(late, []byte("after"), core.AppendOptions{}); err != nil && !core.IsDegraded(err) {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Where each entry starts and which blocks hold a share of it.
	type place struct {
		block, idx int
		blocks     []int
	}
	places := make([]place, len(sizes))
	var invalidated []int
	set := mountSet(t, base)
	end, err := set.GlobalEnd()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < end; g++ {
		p, err := set.ReadBlock(g)
		if errors.Is(err, wodev.ErrInvalidated) {
			invalidated = append(invalidated, g)
			continue
		}
		if err != nil {
			t.Fatalf("base block %d: %v", g, err)
		}
		var r blockfmt.RecordView
		for i := range p.Len() {
			p.Record(i, &r)
			if r.LogID != id || len(r.Data) == 0 {
				continue
			}
			pl := &places[r.Data[0]-'a']
			if !r.Continued {
				pl.block, pl.idx = g, i
			}
			pl.blocks = append(pl.blocks, g)
		}
	}
	// The shapes the table claims must be the shapes on the medium.
	for k, n := range map[int]int{plain: 1, chain2: 2, chain4: 4} {
		if got := len(places[k].blocks); got != n {
			t.Fatalf("entry %d spans %d blocks, want %d", k, got, n)
		}
	}
	if len(invalidated) != 2 {
		t.Fatalf("invalidated blocks = %v, want 2", invalidated)
	}
	if sb := places[slid].blocks; !(sb[0] < invalidated[0] && invalidated[0] < sb[len(sb)-1]) {
		t.Fatalf("entry %d in blocks %v does not cross invalidated block %d", slid, sb, invalidated[0])
	}
	if tb := places[tail].blocks; len(tb) < 2 {
		t.Fatalf("entry %d in blocks %v is not fragmented", tail, tb)
	}

	garbage := bytes.Repeat([]byte{0xA5}, bs)
	cases := []struct {
		name string
		// build derives the medium under test from the base image.
		build func() *wodev.MemDevice
		lost  int // the entry this case loses; -1 for none
	}{
		{"intact", func() *wodev.MemDevice {
			return cloneDevice(t, base, base.Written(), nil)
		}, -1},
		{"chain runs off the written end", func() *wodev.MemDevice {
			// Device block = global block + 1 (the volume header).
			return cloneDevice(t, base, places[tail].blocks[0]+2, nil)
		}, tail},
		{"continuation missing", func() *wodev.MemDevice {
			victim := places[chain4].blocks[2]
			return cloneDevice(t, base, base.Written(), func(devIdx int, img []byte) []byte {
				if devIdx != victim+1 {
					return img
				}
				orig, err := blockfmt.Parse(img)
				if err != nil || orig.Len() != 1 {
					t.Fatalf("victim block %d: %v, %d records", victim, err, orig.Len())
				}
				b, err := blockfmt.NewBuilder(bs, orig.BlockIndex)
				if err != nil {
					t.Fatal(err)
				}
				b.SetFlags(orig.Flags)
				b.SetFirstTimestamp(orig.FirstTimestamp)
				if err := b.Append(blockfmt.Record{LogID: id, Data: []byte("Substitute")}); err != nil {
					t.Fatal(err)
				}
				return b.Seal()
			})
		}, chain4},
		{"continuation damaged", func() *wodev.MemDevice {
			dev := cloneDevice(t, base, base.Written(), nil)
			if err := dev.Damage(places[chain4].blocks[1]+1, garbage); err != nil {
				t.Fatal(err)
			}
			return dev
		}, chain4},
		{"middle fragment repaired", func() *wodev.MemDevice {
			// An fsck repair invalidates the damaged block: the chain must
			// not pass over it as it passes over a slide.
			dev := cloneDevice(t, base, base.Written(), nil)
			if err := dev.Damage(places[chain4].blocks[1]+1, garbage); err != nil {
				t.Fatal(err)
			}
			if rep, err := scrub.Volumes([]wodev.Device{dev}, scrub.Options{Repair: true}); err != nil || rep.Repaired != 1 {
				t.Fatalf("repair: %+v, %v", rep, err)
			}
			return dev
		}, chain4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The service may write during recovery; give it its own copy.
			svcDev := tc.build()
			svc, err := core.Open([]wodev.Device{svcDev}, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			dev := tc.build()
			fol := &followerState{
				n:     &Node{devs: [][]wodev.Device{{dev}}},
				vsets: make([]*volume.Set, 1),
			}
			readers := []struct {
				name string
				read func(block, idx int) (*core.Entry, error)
			}{
				{"service", svc.ReadAt},
				{"follower", func(block, idx int) (*core.Entry, error) { return fol.readAt(0, block, idx) }},
			}
			written := dev.Written() - 1 // data blocks on the medium
			checked := 0
			for k, pl := range places {
				if pl.block >= written {
					continue // the entry's first block is not on this medium
				}
				checked++
				for _, r := range readers {
					e, err := r.read(pl.block, pl.idx)
					switch {
					case k == tc.lost:
						if !errors.Is(err, core.ErrLost) {
							t.Errorf("%s: entry %d = %v, want ErrLost", r.name, k, err)
						}
					case err != nil:
						t.Errorf("%s: entry %d: %v", r.name, k, err)
					case !bytes.Equal(e.Data, want[k]):
						t.Errorf("%s: entry %d = %d bytes of %q, want %d of %q",
							r.name, k, len(e.Data), e.Data[:1], len(want[k]), want[k][:1])
					}
				}
			}
			if checked <= tc.lost {
				t.Fatalf("only %d entries checked", checked)
			}

			rep, err := scrub.Volumes([]wodev.Device{dev}, scrub.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if lost := !rep.Clean() || len(rep.OpenTailChains) > 0; lost != (tc.lost >= 0) {
				t.Errorf("scrub: problems %v, open tail chains %v; want an entry lost: %v",
					rep.Problems, rep.OpenTailChains, tc.lost >= 0)
			}
			if tc.lost < 0 && (rep.Invalidated != 2 || rep.CatalogRecords != 2) {
				t.Errorf("scrub: %d invalidated blocks, %d catalog records replayed; want 2 and 2",
					rep.Invalidated, rep.CatalogRecords)
			}
		})
	}
}

func mountSet(t *testing.T, dev wodev.Device) *volume.Set {
	t.Helper()
	v, err := volume.Mount(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	set := volume.NewSet(v.Hdr.Seq)
	if err := set.Add(v); err != nil {
		t.Fatal(err)
	}
	return set
}

// cloneDevice copies the first n device blocks of src to a fresh device,
// invalidated blocks included, passing each image through edit when set.
func cloneDevice(t *testing.T, src *wodev.MemDevice, n int, edit func(devIdx int, img []byte) []byte) *wodev.MemDevice {
	t.Helper()
	dst := wodev.NewMem(wodev.MemOptions{BlockSize: src.BlockSize(), Capacity: src.Capacity()})
	for i := 0; i < n; i++ {
		img := make([]byte, src.BlockSize())
		err := src.ReadBlock(i, img)
		if errors.Is(err, wodev.ErrInvalidated) {
			if err := dst.Invalidate(i); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("clone block %d: %v", i, err)
		}
		if edit != nil {
			img = edit(i, img)
		}
		if _, err := dst.AppendBlock(img); err != nil {
			t.Fatalf("clone block %d: %v", i, err)
		}
	}
	return dst
}
