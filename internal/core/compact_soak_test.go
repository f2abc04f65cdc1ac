package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"clio/internal/archive"
	"clio/internal/faults"
	"clio/internal/scrub"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// TestCompactSoak drives many compaction cycles over a service with churning
// garbage, concurrent readers and writers, and injected crashes, checking
// the two reclamation invariants: no acked entry is ever lost, and hot
// storage stays bounded while logical history grows.
func TestCompactSoak(t *testing.T) {
	cycles := 6
	if testing.Short() {
		cycles = 3
	}
	h := newColdHarness(16)
	copt := CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2}
	s := h.open(t, copt)
	keep := mustCreate(t, s, "/keep")

	var acked []string
	stages := []string{"collected", "forced", "committed", "archived", "demoted"}
	maxHot := 0

	for cycle := 0; cycle < cycles; cycle++ {
		// Churn: a per-cycle log that dominates the volumes written this
		// cycle and is retired before compaction, leaving mostly garbage.
		churnPath := fmt.Sprintf("/churn-%d", cycle)
		churn := mustCreate(t, s, churnPath)
		startVols := len(s.Volumes())
		for i := 0; len(s.Volumes()) < startVols+3; i++ {
			if i > 10000 {
				t.Fatal("could not fill volumes")
			}
			if i%6 == 0 {
				p := fmt.Sprintf("keep-c%d-%04d-%s", cycle, i, "kkkkkkkkkkkkkkkk")
				mustAppend(t, s, keep, p, AppendOptions{})
				acked = append(acked, p)
			} else {
				mustAppend(t, s, churn, fmt.Sprintf("churn-%04d-%s", i, "cccccccccccccccc"), AppendOptions{})
			}
		}
		if err := s.Force(); err != nil {
			t.Fatal(err)
		}
		if err := s.Retire(churnPath); err != nil {
			t.Fatal(err)
		}

		if cycle%2 == 1 {
			// Crash cycle: kill the compaction at a rotating stage, then
			// reopen on whatever devices survived.
			stage := stages[(cycle/2)%len(stages)]
			boom := errors.New("soak crash")
			h.faults.Arm(FaultCompact+stage, faults.Fault{Err: boom, Prob: 0.5})
			if _, err := s.CompactOnce(context.Background(), CompactOptions{}); err != nil && !errors.Is(err, boom) {
				t.Fatalf("cycle %d: CompactOnce: %v", cycle, err)
			}
			h.faults.Arm(FaultCompact+stage, faults.Fault{})
			s.Crash()
			s = h.open(t, copt)
		} else {
			// Concurrent cycle: compaction races a live appender and reader.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var appErr error
			var appended []string
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					p := fmt.Sprintf("keep-live-c%d-%04d", cycle, i)
					if _, err := s.Append(keep, []byte(p), AppendOptions{}); err != nil && !IsDegraded(err) {
						appErr = err
						return
					}
					appended = append(appended, p)
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := s.OpenCursor("/keep")
					if err != nil {
						return
					}
					for {
						if _, err := c.Next(); err != nil {
							break
						}
					}
				}
			}()
			if _, err := s.CompactOnce(context.Background(), CompactOptions{}); err != nil {
				t.Fatalf("cycle %d: concurrent CompactOnce: %v", cycle, err)
			}
			close(stop)
			wg.Wait()
			if appErr != nil {
				t.Fatalf("cycle %d: concurrent append: %v", cycle, appErr)
			}
			acked = append(acked, appended...)
			if err := s.Force(); err != nil {
				t.Fatal(err)
			}
		}

		// Invariant: every acked entry readable, in order, exactly once.
		ents := readAll(t, s, "/keep")
		if got := datas(ents); fmt.Sprint(got) != fmt.Sprint(acked) {
			for i := 0; i < len(got) && i < len(acked); i++ {
				if got[i] != acked[i] {
					t.Logf("first divergence at %d: got %q (block %d rec %d) want %q",
						i, got[i], ents[i].Block, ents[i].Index, acked[i])
					break
				}
			}
			t.Fatalf("cycle %d: /keep diverged: got %d entries, want %d",
				cycle, len(got), len(acked))
		}
		if n := len(s.Volumes()); n > maxHot {
			maxHot = n
		}
	}

	// Hot storage is bounded: far fewer volumes stay mounted than were
	// ever written.
	total := len(h.devs)
	if total < 8 {
		t.Fatalf("soak wrote only %d volumes", total)
	}
	if maxHot >= total {
		t.Errorf("hot set never shrank: max hot %d of %d total", maxHot, total)
	}
	if demoted := s.Stats().VolumesDemoted; demoted < 3 {
		t.Errorf("only %d volumes demoted over %d cycles", demoted, cycles)
	}

	// Cold read-through still serves every demoted block, and the full
	// physical history (hot + cold) scrubs clean.
	s.SetCacheCapacity(64)
	if cv := s.cmpView.Load(); cv != nil {
		for _, v := range cv.vols {
			if !v.Demoted {
				continue
			}
			for g := v.Start; g < v.end(); g++ {
				if _, err := s.readBlock(g); err != nil {
					t.Fatalf("cold block %d unreadable: %v", g, err)
				}
			}
		}
	}
	coldDevs, err := archive.Restore(context.Background(), h.be)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	var all []wodev.Device
	for _, v := range s.Volumes() {
		all = append(all, v.Dev)
		seen[v.Hdr.Index] = true
	}
	for _, d := range coldDevs {
		hdr, err := volume.ReadHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[hdr.Index] {
			all = append(all, d)
		}
	}
	rep, err := scrub.Volumes(all, scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("soak scrub found problems: %v", rep.Problems)
	}

	// One final append after everything settles.
	mustAppend(t, s, keep, "soak-done", AppendOptions{})
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
	c, err := s.OpenCursor("/keep")
	if err != nil {
		t.Fatal(err)
	}
	c.SeekEnd()
	e, err := c.Prev()
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if e == nil || string(e.Data) != "soak-done" {
		t.Errorf("final append not last entry")
	}
	s.Close()
}
