package clio

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clio/internal/scrub"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.listing from this build's reading of the golden stores")

// goldenStores are the committed stores, each written once through the
// public API by an earlier build and never regenerated: the media a later
// commit must still read (write-once volumes cannot be rewritten into a new
// format). Each has its expected listing beside it, taken by the build that
// wrote it.
//
// golden-v1: one shard, 256 B blocks, logs /app, /app/web, /app/db and
// /audit; unforced minimal, timestamped and forced entries, multi-member
// entries in /app/web and /audit, an 816-byte entry over four blocks, an
// entrymap boundary, and an NVRAM sidecar holding a staged tail and
// pipelined seals (the writer was stopped by Crash after a force).
var goldenStores = map[string][]string{
	"golden-v1": {"/app", "/app/web", "/app/db", "/audit"},
}

// TestGoldenStores opens a copy of each golden store and requires fsck's
// verdict before the open, every log's entries (path, timestamp, data
// hash) and a clean scrub after the open to be what the listing says.
func TestGoldenStores(t *testing.T) {
	for name, paths := range goldenStores {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), name)
			copyDir(t, filepath.Join("testdata", name), dir)
			got := "fsck: " + fsckVerdict(t, dir) + "\n" + listStore(t, dir, paths)
			if rep := scrubDir(t, dir); !rep.Clean() {
				t.Errorf("scrub after open: %v", rep.Problems)
			}
			listing := filepath.Join("testdata", name+".listing")
			if *updateGolden {
				if err := os.WriteFile(listing, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(listing)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("listing differs from %s:\n%s", listing, lineDiff(string(want), got))
			}
		})
	}
}

// listStore opens the store, lists every entry of each path in cursor
// order, and closes it.
func listStore(t *testing.T, dir string, paths []string) string {
	t.Helper()
	ctx := context.Background()
	st, err := OpenStore(dir, DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, path := range paths {
		cur, err := st.OpenCursor(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		for {
			e, err := cur.Next(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			fmt.Fprintf(&b, "%s %d %x\n", path, e.Timestamp, sha256.Sum256(e.Data))
		}
		cur.Close()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// fsckVerdict is `clio fsck`'s summary of the store's media.
func fsckVerdict(t *testing.T, dir string) string {
	t.Helper()
	rep := scrubDir(t, dir)
	verdict := "clean"
	if !rep.Clean() {
		verdict = fmt.Sprintf("%d problems", len(rep.Problems))
	}
	return fmt.Sprintf("%d data blocks: %d readable, %d invalidated, %d damaged; %d records, %d entrymap entries, %d catalog records; %s",
		rep.Blocks, rep.Readable, rep.Invalidated, rep.Damaged,
		rep.Entries, rep.EntrymapEntries, rep.CatalogRecords, verdict)
}

func scrubDir(t *testing.T, dir string) *scrub.Report {
	t.Helper()
	raw, err := OpenRaw(dir, DirOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if len(raw.Devices) != 1 {
		t.Fatalf("%d shards, want 1", len(raw.Devices))
	}
	rep, err := scrub.Volumes(raw.Devices[0], scrub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// lineDiff names the first line at which two listings differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %q\n  got %q\n(%d lines wanted, %d got)", i+1, wl, gl, len(w), len(g))
		}
	}
	return "identical"
}
