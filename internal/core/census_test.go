package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"testing"

	"clio/internal/faults"
	"clio/internal/wodev"
)

// documentedPoints returns the fault points the faults.Registry doc comment
// lists, one "//\t<point>  – <where>" line each.
func documentedPoints(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../faults/faults.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(`(?m)^//\t([a-z][a-z.]*)\s+–`).FindAllSubmatch(src, -1) {
		out = append(out, string(m[1]))
	}
	if len(out) == 0 {
		t.Fatal("the faults.Registry doc lists no points")
	}
	return out
}

// TestFaultPointCensus is the inventory of the fault points: one seeded
// single-shard workload — forced and unforced appends across entrymap
// boundaries and volume rolls, a write failing as damaged media so a slide
// invalidates a block, a checkpoint, a compaction with a cold tier, and a
// reopen — over devices wrapped as wodev.Inject(mem, reg, "dev"), the
// allocated volumes included, with the same registry in Options.Faults.
// Every point the faults.Registry doc lists must be reached, and the
// registry must know no point the doc leaves out.
func TestFaultPointCensus(t *testing.T) {
	h := newColdHarness(16)
	h.nv = NewMemNVRAM()
	reg := h.faults
	copt := CompactOptions{MaxLiveFraction: 0.95, MinHotVolumes: 2}
	s := h.open(t, copt)
	keep := mustCreate(t, s, "/keep")
	dead := mustCreate(t, s, "/dead")
	rng := rand.New(rand.NewSource(27))
	var want []string
	put := func(i int) {
		forced := rng.Intn(4) == 0
		if i%5 == 0 {
			p := fmt.Sprintf("keep-%04d-%s", i, string(make([]byte, rng.Intn(40))))
			mustAppend(t, s, keep, p, AppendOptions{Forced: forced})
			want = append(want, p)
		} else {
			mustAppend(t, s, dead, fmt.Sprintf("dead-%04d-%s", i, string(make([]byte, rng.Intn(40)))), AppendOptions{Forced: forced})
		}
	}
	i := 0
	for ; len(s.Volumes()) < 3; i++ {
		put(i)
	}

	// Fail one tail-block write as damaged media, with room left on the
	// active volume so the armed write is a seal, not a successor's header.
	for {
		vols := s.Volumes()
		a := vols[len(vols)-1]
		if int(a.Hdr.StartOffset)+a.DataCapacity()-s.End() >= 4 {
			break
		}
		put(i)
		i++
	}
	reg.Arm("dev.write", faults.Fault{Err: wodev.ErrCorrupt, Times: 1})
	for ; reg.Fired("dev.write") == 0; i++ {
		put(i)
	}
	for ; len(s.Volumes()) < 5; i++ {
		put(i)
	}
	if err := s.Force(); err != nil && !IsDegraded(err) {
		t.Fatal(err)
	}
	if n := s.Stats().DeadBlocks; n != 1 {
		t.Fatalf("DeadBlocks = %d after one write failed as damaged media, want 1", n)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Retire("/dead"); err != nil {
		t.Fatal(err)
	}
	res, err := s.CompactOnce(context.Background(), CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VolumesDemoted == 0 {
		t.Fatalf("the compaction demoted nothing: %+v", res)
	}
	s.Crash()
	s = h.open(t, copt)
	defer s.Close()
	if got := datas(readAll(t, s, "/keep")); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after reopen /keep holds %d entries, want %d", len(got), len(want))
	}

	documented := make(map[string]bool)
	for _, p := range documentedPoints(t) {
		documented[p] = true
		if reg.Hits(p) == 0 {
			t.Errorf("point %s is documented but the census workload never reached it", p)
		}
	}
	for _, st := range reg.Points() {
		if !documented[st.Name] {
			t.Errorf("point %s was reached but the faults.Registry doc does not list it", st.Name)
		}
	}
	t.Logf("points: %+v", reg.Points())
}
