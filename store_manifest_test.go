package clio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/scrub"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// smallGeometry is a non-default geometry: a reopen that falls back to the
// defaults (1 KiB blocks, 1<<20-block volumes) cannot read a store laid out
// with it.
func smallGeometry(shards int) DirOptions {
	o := DirOptions{VolumeBlocks: 48, Shards: shards}
	o.BlockSize = 256
	return o
}

// fillVolumes creates a store in dir with smallGeometry and appends to 16
// root logs until every shard has rolled onto at least its third volume. It
// returns what each log was sent, in order; the store is closed.
func fillVolumes(t *testing.T, dir string, shards int) map[string][]string {
	t.Helper()
	ctx := context.Background()
	st, err := CreateStore(dir, smallGeometry(shards))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]string)
	ids := make(map[string]ID)
	for i := 0; i < 16; i++ {
		path := fmt.Sprintf("/log%02d", i)
		if ids[path], err = st.CreateLog(ctx, path, 0o644, "test"); err != nil {
			t.Fatal(err)
		}
	}
	rolled := func() bool {
		for s := 0; s < shards; s++ {
			if len(st.Service(s).Volumes()) < 3 {
				return false
			}
		}
		return true
	}
	for n := 0; !rolled(); n++ {
		for path, id := range ids {
			p := fmt.Sprintf("%s entry %05d, padded so that blocks fill quickly........", path, n)
			if _, err := st.Append(ctx, id, []byte(p), AppendOptions{Forced: n%7 == 0}); err != nil {
				t.Fatal(err)
			}
			want[path] = append(want[path], p)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkReadable reads every log of want back from st and compares.
func checkReadable(t *testing.T, st *Store, want map[string][]string) {
	t.Helper()
	ctx := context.Background()
	for path, entries := range want {
		cur, err := st.OpenCursor(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range entries {
			e, err := cur.Next(ctx)
			if err != nil {
				t.Fatalf("%s: entry %d of %d: %v", path, i, len(entries), err)
			}
			if string(e.Data) != w {
				t.Fatalf("%s: entry %d = %q, want %q", path, i, e.Data, w)
			}
		}
		if _, err := cur.Next(ctx); err != io.EOF {
			t.Fatalf("%s: after %d entries: %v, want EOF", path, len(entries), err)
		}
		cur.Close()
	}
}

// TestStoreRecordsItsGeometry: a store created with a non-default geometry
// reopens with no geometry given — every acked entry on every volume of
// every shard readable — and the mounted and the raw open both carry the
// recorded values.
func TestStoreRecordsItsGeometry(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			want := fillVolumes(t, dir, shards)
			st, err := OpenStore(dir, DirOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Shards() != shards {
				t.Errorf("reopened with %d shards, want %d", st.Shards(), shards)
			}
			checkReadable(t, st, want)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := OpenRaw(dir, DirOptions{}, false)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if raw.Opts.BlockSize != 256 || len(raw.Devices) != shards {
				t.Errorf("raw open: block size %d, %d shards", raw.Opts.BlockSize, len(raw.Devices))
			}
			for s, devs := range raw.Devices {
				if len(devs) < 3 {
					t.Errorf("shard %d: %d volumes, want at least 3", s, len(devs))
				}
				for _, d := range devs {
					if d.Capacity() != 48 || d.BlockSize() != 256 {
						t.Errorf("shard %d: volume opened at %d blocks of %d bytes", s, d.Capacity(), d.BlockSize())
					}
				}
			}
		})
	}
}

// TestStoreRefusesContradictingGeometry: a geometry value given on reopen is
// an assertion; one that contradicts the manifest is refused with an error
// naming both values, whichever way the store is opened.
func TestStoreRefusesContradictingGeometry(t *testing.T) {
	dir := t.TempDir()
	fillVolumes(t, dir, 1)
	wrong := map[string]DirOptions{
		"volume-blocks 48, not 96": {VolumeBlocks: 96},
		"block-size 256, not 512":  {Options: Options{BlockSize: 512}},
		"shards 1, not 2":          {Shards: 2},
	}
	for msg, o := range wrong {
		if st, err := OpenStore(dir, o); err == nil {
			st.Close()
			t.Errorf("OpenStore(%+v) accepted", o)
		} else if !strings.Contains(err.Error(), msg) {
			t.Errorf("OpenStore: %v, want it to say %q", err, msg)
		}
		if raw, err := OpenRaw(dir, o, false); err == nil {
			raw.Close()
			t.Errorf("OpenRaw(%+v) accepted", o)
		} else if !strings.Contains(err.Error(), msg) {
			t.Errorf("OpenRaw: %v, want it to say %q", err, msg)
		}
	}
	// The matching values are accepted.
	st, err := OpenStore(dir, smallGeometry(1))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
}

// TestStoreAdoptsManifest: a store without a manifest opens from the given
// geometry as it always did and is given one — unless the geometry is wrong,
// which the volumes' contiguity shows at mount (and to fsck) and which is
// then never recorded.
func TestStoreAdoptsManifest(t *testing.T) {
	dir := t.TempDir()
	want := fillVolumes(t, dir, 1)
	path := filepath.Join(dir, manifestFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The wrong capacity: refused, and nothing recorded.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	bad := smallGeometry(1)
	bad.VolumeBlocks = 96
	if st, err := OpenStore(dir, bad); !errors.Is(err, volume.ErrNotContiguous) {
		if err == nil {
			st.Close()
		}
		t.Fatalf("OpenStore at the wrong capacity: %v, want ErrNotContiguous", err)
	}
	if raw, err := OpenRaw(dir, bad, false); !errors.Is(err, volume.ErrNotContiguous) {
		if err == nil {
			raw.Close()
		}
		t.Fatalf("OpenRaw at the wrong capacity: %v, want ErrNotContiguous", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused open left a manifest behind (stat: %v)", err)
	}
	// What any hand assembly with that capacity gets from fsck's scrub.
	names, err := listVolumes(dir)
	if err != nil {
		t.Fatal(err)
	}
	var devs []wodev.Device
	for _, n := range names {
		d, err := wodev.OpenFile(filepath.Join(dir, n), wodev.FileOptions{BlockSize: 256, Capacity: 96})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		devs = append(devs, d)
	}
	if rep, err := scrub.Volumes(devs, scrub.Options{}); !errors.Is(err, volume.ErrNotContiguous) {
		t.Fatalf("scrub at the wrong capacity: report %+v, err %v; want ErrNotContiguous", rep, err)
	}

	// The right geometry — also over a manifest cut short, which is no
	// manifest: opens, and records it.
	for _, left := range [][]byte{nil, whole[:len(whole)/2]} {
		os.Remove(path)
		if left != nil {
			if err := os.WriteFile(path, left, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := OpenStore(dir, smallGeometry(1))
		if err != nil {
			t.Fatal(err)
		}
		checkReadable(t, st, want)
		st.Close()
		if got, err := os.ReadFile(path); err != nil || string(got) != string(whole) {
			t.Fatalf("adopted manifest = %q (%v), want %q", got, err, whole)
		}
	}
	st, err := OpenStore(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkReadable(t, st, want)
	st.Close()
}

// TestStoreInterchangesWithHandAssembly: a store put together from the parts
// (wodev.OpenFile + core.New beside a FileNVRAM, no manifest — what
// bench/stack.go does) opens through OpenStore, and a CreateStore store
// opens through that assembly.
func TestStoreInterchangesWithHandAssembly(t *testing.T) {
	ctx := context.Background()
	assemble := func(dir string, create bool) *core.Service {
		t.Helper()
		dev, err := wodev.OpenFile(volPath(dir, 0), wodev.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{NVRAM: core.NewFileNVRAM(filepath.Join(dir, nvramFile))}
		var svc *core.Service
		if create {
			svc, err = core.New(dev, opt)
		} else {
			svc, err = core.Open([]wodev.Device{dev}, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	byHand := t.TempDir()
	svc := assemble(byHand, true)
	id, err := svc.CreateLog("/hand", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(id, []byte("laid out by hand"), core.AppendOptions{Forced: true}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(byHand, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkReadable(t, st, map[string][]string{"/hand": {"laid out by hand"}})
	st.Close()
	if g, ok, err := loadManifest(byHand); err != nil || !ok || g != (DirOptions{}).geometry() {
		t.Errorf("adopted manifest: %+v, present %v, err %v; want the default geometry", g, ok, err)
	}

	byStore := t.TempDir()
	st, err = CreateStore(byStore, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sid, err := st.CreateLog(ctx, "/store", 0o644, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(ctx, sid, []byte("laid out by CreateStore"), AppendOptions{Forced: true}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	svc = assemble(byStore, false)
	defer svc.Close()
	cur, err := svc.OpenCursor("/store")
	if err != nil {
		t.Fatal(err)
	}
	if e, err := cur.Next(); err != nil || string(e.Data) != "laid out by CreateStore" {
		t.Fatalf("hand assembly over a CreateStore store read %v, %v", e, err)
	}
}

// TestManifestPrefixesAreAbsent: cut short at any byte, a manifest does not
// load — "volume-blocks = 4" cut out of "48" must never parse as a geometry.
func TestManifestPrefixesAreAbsent(t *testing.T) {
	g := geometry{blockSize: 256, volumeBlocks: 48, shards: 4}
	whole := g.encode()
	if got, ok := parseManifest(whole); !ok || got != g {
		t.Fatalf("parseManifest(%q) = %+v, %v", whole, got, ok)
	}
	for n := 0; n < len(whole); n++ {
		if got, ok := parseManifest(whole[:n]); ok {
			t.Errorf("the first %d bytes %q load as %+v", n, whole[:n], got)
		}
	}
	flipped := append([]byte(nil), whole...)
	flipped[strings.Index(string(whole), "48")] = '9'
	if got, ok := parseManifest(flipped); ok {
		t.Errorf("a manifest with a changed digit loads as %+v", got)
	}
}
