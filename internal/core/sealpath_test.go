package core

// TestSealPathAgreement pins the one seal routine (pipeline.go) from both
// of its live callers: the same seeded script runs over a MemNVRAM, whose
// staging slots select the background sealer, and over the same NVRAM with
// the slots hidden, which selects the inline seal. What lands on the
// write-once devices must not depend on which caller put it there.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"clio/internal/blockfmt"
	"clio/internal/scrub"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// sealTail forces the staged tail block onto the device itself, padding
// the remainder, and waits out the pipelined writes: what Close does
// without an NVRAM, on a service that stays open. A slide along the way
// queued a bad-block record that belongs on the medium too; writing it
// reopens the tail, so it goes round again.
func sealTail(s *Service) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return ErrClosed
	}
	for {
		s.awaitChainLocked()
		if s.closedFlag.Load() {
			return ErrClosed
		}
		if err := s.flushDueLocked(); err != nil {
			return err
		}
		if s.tailGlobal >= 0 {
			if err := s.sealTailLocked(true); err != nil {
				return err
			}
			continue
		}
		if err := s.drainPipeLocked(); err != nil {
			return err
		}
		if len(s.pendingBad) == 0 {
			break
		}
	}
	return s.maybeCheckpointLocked()
}

// sealScriptResult is what one run of the script left behind.
type sealScriptResult struct {
	devs    []wodev.Device
	entries []string // "logid tick data" of /t, in cursor order, after reopen
	bad     []int    // the bad-block log after reopen, sorted
}

// runSealScript runs the script on a fresh store of volBlocks-block volumes
// and reopens it. damageDev >= 0 pre-damages that (unwritten) device block
// of volume 0. The clock is driven by the script, one 1000 ns tick per step:
// the service's own stamps (a successor volume's header, formatted whenever
// a background seal gets there) push later ones up by a nanosecond each, so
// the tick is what an entry's timestamp owes to the script.
func runSealScript(t *testing.T, hideStaging bool, volBlocks, damageDev int) sealScriptResult {
	t.Helper()
	var clk atomic.Int64
	var nv NVRAM = NewMemNVRAM()
	if hideStaging {
		nv = struct{ NVRAM }{nv}
	}
	dev0 := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: volBlocks})
	devs := []wodev.Device{dev0}
	opt := Options{BlockSize: 256, Degree: 4, Now: clk.Load, NVRAM: nv,
		Allocate: func(_ volume.SeqID, _ uint32, _ uint64, blockSize int) (wodev.Device, error) {
			d := wodev.NewMem(wodev.MemOptions{BlockSize: blockSize, Capacity: volBlocks})
			devs = append(devs, d)
			return d, nil
		}}
	if damageDev >= 0 {
		if err := dev0.Damage(damageDev, nil); err != nil {
			t.Fatal(err)
		}
	}
	clk.Store(1000)
	s, err := New(dev0, opt)
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, s, "/t")
	ids := []uint16{mustCreate(t, s, "/t/a"), mustCreate(t, s, "/t/b")}

	rng := rand.New(rand.NewSource(15))
	for step := 1; step <= 420; step++ {
		clk.Store(int64(step+1) * 1000)
		size := 10 + rng.Intn(50)
		if rng.Intn(10) == 0 {
			size = 700 // fragments over three or four 256-byte blocks
		}
		data := bytes.Repeat([]byte{byte('a' + step%26)}, size)
		copy(data, fmt.Sprintf("s%03d-", step))
		var ao AppendOptions
		switch rng.Intn(3) {
		case 0:
			ao.Forced = true
		case 1:
			ao.Timestamped = true
		}
		mustAppend(t, s, ids[rng.Intn(2)], string(data), ao)
		if step%37 == 0 {
			if err := sealTail(s); err != nil {
				t.Fatalf("step %d sealTail: %v", step, err)
			}
		}
	}
	if err := sealTail(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opt.Allocate = nil
	s2, err := Open(devs, opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	res := sealScriptResult{devs: devs, bad: s2.LastRecovery().BadBlocks}
	sort.Ints(res.bad)
	for _, e := range readAll(t, s2, "/t") {
		// An entry without its own timestamp inherits one from its block
		// neighbours (§2.1), which is a property of the layout, not the entry.
		tick := int64(0)
		if e.Timestamped {
			tick = e.Timestamp / 1000
		}
		res.entries = append(res.entries, fmt.Sprintf("%d %d %s", e.LogID, tick, e.Data))
	}
	if len(res.entries) != 420 {
		t.Fatalf("hideStaging=%v: read back %d entries, want 420", hideStaging, len(res.entries))
	}
	return res
}

func TestSealPathAgreement(t *testing.T) {
	t.Run("single-volume/byte-identical", func(t *testing.T) {
		pipe := runSealScript(t, false, 1<<10, -1)
		inline := runSealScript(t, true, 1<<10, -1)
		p, i := pipe.devs[0].(*wodev.MemDevice), inline.devs[0].(*wodev.MemDevice)
		if len(pipe.devs) != 1 || len(inline.devs) != 1 || p.Written() != i.Written() || p.Written() < 100 {
			t.Fatalf("geometry: %d/%d volumes, %d/%d blocks written",
				len(pipe.devs), len(inline.devs), p.Written(), i.Written())
		}
		pb, ib := make([]byte, 256), make([]byte, 256)
		for b := 0; b < p.Written(); b++ {
			if perr, ierr := p.ReadBlock(b, pb), i.ReadBlock(b, ib); perr != nil || ierr != nil {
				t.Fatalf("device block %d: pipelined %v, inline %v", b, perr, ierr)
			}
			if !bytes.Equal(pb, ib) {
				t.Fatalf("device block %d of %d differs between the seal paths", b, p.Written())
			}
		}
	})

	t.Run("damaged+multi-volume/same-log", func(t *testing.T) {
		// Device block 20 of volume 0 is data block 19: the slide pushes its
		// contents onto block 20, across a degree-4 entrymap boundary.
		const volBlocks, damageDev = 64, 20
		pipe := runSealScript(t, false, volBlocks, damageDev)
		inline := runSealScript(t, true, volBlocks, damageDev)
		if fmt.Sprint(pipe.entries) != fmt.Sprint(inline.entries) {
			for k := range pipe.entries {
				if pipe.entries[k] != inline.entries[k] {
					t.Fatalf("entry %d differs:\n pipelined %.60s\n inline    %.60s", k, pipe.entries[k], inline.entries[k])
				}
			}
		}
		for name, res := range map[string]sealScriptResult{"pipelined": pipe, "inline": inline} {
			if len(res.devs) < 3 {
				t.Errorf("%s: %d volumes, want the script to fill at least two", name, len(res.devs))
			}
			if fmt.Sprint(res.bad) != fmt.Sprint([]int{damageDev - 1}) {
				t.Errorf("%s: bad-block log %v, want [%d]", name, res.bad, damageDev-1)
			}
			rep, err := scrub.Volumes(res.devs, scrub.Options{})
			if err != nil {
				t.Fatalf("%s: scrub: %v", name, err)
			}
			if !rep.Clean() {
				t.Errorf("%s: scrub problems: %v", name, rep.Problems)
			}
			last := make([]byte, 256)
			if err := res.devs[0].ReadBlock(volBlocks-1, last); err != nil {
				t.Fatalf("%s: last block of volume 0: %v", name, err)
			}
			parsed, err := blockfmt.Parse(last)
			if err != nil {
				t.Fatalf("%s: last block of volume 0: %v", name, err)
			}
			if parsed.Flags&blockfmt.FlagVolumeSealed == 0 {
				t.Errorf("%s: last data block of volume 0 lacks FlagVolumeSealed (flags %#x)", name, parsed.Flags)
			}
		}
	})
}

// TestSlideLoggedWithoutFollowingAppend: a slide's bad-block record must
// reach the bad-block log even when no append follows the sliding seal —
// the seal was a force's padded block, sealTail's, Close's own, or a
// background write that Close (or sealTail) waited out. Each case damages
// the next unwritten block, runs one operation over it, ends the service and
// reopens: recovery must report exactly that dead block, and the entries
// must all be there.
func TestSlideLoggedWithoutFollowingAppend(t *testing.T) {
	nvrams := map[string]func() NVRAM{
		"none":      func() NVRAM { return nil },
		"inline":    func() NVRAM { return struct{ NVRAM }{NewMemNVRAM()} },
		"pipelined": func() NVRAM { return NewMemNVRAM() },
	}
	big := string(bytes.Repeat([]byte{'x'}, 700)) // seals three blocks mid-chain
	ops := []struct {
		name  string
		op    func(t *testing.T, s *Service, id uint16)
		crash bool // end with Crash instead of Close: the record is already durable
		bare  bool // only without NVRAM: with one, nothing here seals a block
	}{
		{"forced append, close", func(t *testing.T, s *Service, id uint16) {
			if _, err := s.Append(id, []byte(big), AppendOptions{Forced: true}); err != nil && !IsDegraded(err) {
				t.Fatal(err)
			}
		}, false, false},
		{"forced append over the padded seal, close", func(t *testing.T, s *Service, id uint16) {
			if _, err := s.Append(id, []byte("small"), AppendOptions{Forced: true}); !IsDegraded(err) {
				t.Fatalf("forced append over a damaged block: %v, want *DegradedError", err)
			}
		}, false, true},
		{"unforced append, Force, close", func(t *testing.T, s *Service, id uint16) {
			mustAppend(t, s, id, "small", AppendOptions{})
			if err := s.Force(); err != nil && !IsDegraded(err) {
				t.Fatal(err)
			}
		}, false, true},
		{"unforced append, close", func(t *testing.T, s *Service, id uint16) {
			mustAppend(t, s, id, "small", AppendOptions{})
		}, false, true},
		{"SealTail, crash", func(t *testing.T, s *Service, id uint16) {
			mustAppend(t, s, id, "small", AppendOptions{})
			if err := sealTail(s); err != nil {
				t.Fatal(err)
			}
		}, true, false},
	}
	for nvName, newNV := range nvrams {
		for _, c := range ops {
			if c.bare && nvName != "none" {
				continue
			}
			t.Run(nvName+"/"+c.name, func(t *testing.T) {
				tc := &testClock{}
				opt := Options{BlockSize: 256, Degree: 4, Now: tc.Now, NVRAM: newNV()}
				dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 10})
				s, err := New(dev, opt)
				if err != nil {
					t.Fatal(err)
				}
				id := mustCreate(t, s, "/s")
				mustAppend(t, s, id, "first", AppendOptions{Forced: true})
				if err := sealTail(s); err != nil {
					t.Fatal(err)
				}
				dead := dev.Written()
				if err := dev.Damage(dead, nil); err != nil {
					t.Fatal(err)
				}
				c.op(t, s, id)
				want := len(readAll(t, s, "/s"))
				// An inline slide, or one sealTail waited out, is logged by the
				// operation it happened in (only a background slide may still
				// be queued when its operation has returned).
				s.mu.Lock()
				if (nvName != "pipelined" || c.crash) && len(s.pendingBad) != 0 {
					t.Errorf("bad blocks %v still queued when the operation returned", s.pendingBad)
				}
				s.mu.Unlock()
				if c.crash {
					s.Crash()
				} else if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s2, err := Open([]wodev.Device{dev}, opt)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer s2.Close()
				// Device block = global + 1 (the volume header).
				if got := s2.LastRecovery().BadBlocks; fmt.Sprint(got) != fmt.Sprint([]int{dead - 1}) {
					t.Errorf("recovered BadBlocks = %v, want [%d]", got, dead-1)
				}
				if got := len(readAll(t, s2, "/s")); got != want {
					t.Errorf("%d entries after reopen, want %d", got, want)
				}
			})
		}
	}
}
