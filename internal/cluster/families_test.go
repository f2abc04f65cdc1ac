package cluster

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/faults"
	"clio/internal/obs"
	"clio/internal/server"
	"clio/internal/shard"
	"clio/internal/wodev"
)

var updateFamilies = flag.Bool("update", false, "rewrite testdata/families_*.golden from this build's registries")

// familyList renders a registry's exposition as one sorted line per family:
// name, type, the label keys its series carry, help. It is everything a
// dashboard or an alert rule depends on besides the values.
func familyList(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	type family struct {
		name, typ, help string
		keys            map[string]bool
	}
	var fams []*family
	for _, line := range strings.Split(prom.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			fams = append(fams, &family{name: name, help: help, keys: map[string]bool{}})
		case strings.HasPrefix(line, "# TYPE "):
			fams[len(fams)-1].typ = line[strings.LastIndexByte(line, ' ')+1:]
		case line != "":
			open, end := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
			if open < 0 {
				continue
			}
			for _, pair := range strings.Split(line[open+1:end], `",`) {
				key, _, _ := strings.Cut(pair, "=")
				fams[len(fams)-1].keys[key] = true
			}
		}
	}
	var out strings.Builder
	for _, f := range fams {
		keys := make([]string, 0, len(f.keys))
		for k := range f.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&out, "%s %s {%s} %s\n", f.name, f.typ, strings.Join(keys, ","), f.help)
	}
	return out.String()
}

func compareFamilies(t *testing.T, golden, got string) {
	t.Helper()
	if *updateFamilies {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("families differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("registry has %d families, %s has %d", len(gl)-1, golden, len(wl)-1)
}

// TestMetricFamiliesGolden pins the exposition surface — every family's
// name, type, label keys and help — of a fully registered single-node store
// (what cliod registers without -peers) and of a cluster node. A change to
// how counters reach the registry must leave both files byte-identical; a
// PR that means to add or rename a family regenerates them with
// `go test ./internal/cluster -run TestMetricFamiliesGolden -update`.
func TestMetricFamiliesGolden(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		svcs := make([]*core.Service, 2)
		for i := range svcs {
			dev := wodev.NewMem(wodev.MemOptions{BlockSize: testBlockSize, Capacity: 64})
			svc, err := core.New(dev, core.Options{
				BlockSize: testBlockSize,
				Faults:    faults.NewRegistry(0),
			})
			if err != nil {
				t.Fatal(err)
			}
			svcs[i] = svc
		}
		st, err := shard.New(svcs)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// One forced append, so the dynamically labelled families (fault
		// points) have series.
		id, err := st.CreateLog(context.Background(), "/fam", 0o644, "t")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(context.Background(), id, []byte("x"), core.AppendOptions{Forced: true}); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		st.RegisterMetrics(reg)
		st.RegisterStreamMetrics(reg)
		server.NewStore(st).RegisterMetrics(reg)
		compareFamilies(t, "testdata/families_single.golden", familyList(t, reg))
	})
	t.Run("cluster", func(t *testing.T) {
		addrs := freeAddrs(t, 3)
		devs, nvrams := freshShards(2)
		tn := startNode(t, addrs[0], addrs[1:], devs, nvrams, true, true, nil)
		reg := obs.NewRegistry()
		tn.node.RegisterMetrics(reg)
		compareFamilies(t, "testdata/families_cluster.golden", familyList(t, reg))
	})
}
