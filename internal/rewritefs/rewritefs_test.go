package rewritefs

import (
	"bytes"
	"errors"
	"testing"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(NewStore(1024, 1<<20))
}

func TestCreateAppendRead(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("f"); err == nil {
		t.Error("duplicate create accepted")
	}
	data := []byte("hello rewriteable world")
	if err := fs.Append("f", data); err != nil {
		t.Fatal(err)
	}
	if sz, _ := fs.Size("f"); sz != len(data) {
		t.Errorf("size = %d", sz)
	}
	got := make([]byte, len(data))
	if err := fs.ReadAt("f", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
	if err := fs.ReadAt("f", 10, make([]byte, 100)); !errors.Is(err, ErrRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := fs.ReadAt("missing", 0, got); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
}

func TestLargeFileThroughIndirection(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("big"); err != nil {
		t.Fatal(err)
	}
	bs := fs.store.blockSize
	// Past the direct blocks and the single indirect: into double indirect.
	blocks := NumDirect + bs/4 + 10
	chunk := make([]byte, bs)
	for i := 0; i < blocks; i++ {
		for j := range chunk {
			chunk[j] = byte(i)
		}
		if err := fs.Append("big", chunk); err != nil {
			t.Fatalf("append block %d: %v", i, err)
		}
	}
	// Spot-check each region.
	got := make([]byte, bs)
	for _, i := range []int{0, NumDirect, NumDirect + 5, NumDirect + bs/4, blocks - 1} {
		if err := fs.ReadAt("big", i*bs, got); err != nil {
			t.Fatalf("read block %d: %v", i, err)
		}
		if got[0] != byte(i) || got[bs-1] != byte(i) {
			t.Fatalf("block %d contents wrong: %d", i, got[0])
		}
	}
}

func TestTailAccessCostGrows(t *testing.T) {
	// §1: "blocks at the tail end of such files become increasingly
	// expensive to read and write."
	fs := newFS(t)
	if err := fs.Create("log"); err != nil {
		t.Fatal(err)
	}
	bs := fs.store.blockSize
	chunk := make([]byte, bs)

	costOfNextAppend := func() int64 {
		fs.store.ResetStats()
		if err := fs.Append("log", chunk); err != nil {
			t.Fatal(err)
		}
		s := fs.store.Stats()
		return s.Reads + s.Writes
	}
	earlyCost := costOfNextAppend() // in the direct region
	// Grow well into the double-indirect region.
	for i := 0; i < NumDirect+bs/4+5; i++ {
		if err := fs.Append("log", chunk); err != nil {
			t.Fatal(err)
		}
	}
	lateCost := costOfNextAppend()
	if lateCost <= earlyCost {
		t.Errorf("tail append cost did not grow: early %d, late %d", earlyCost, lateCost)
	}

	// Cold tail read costs more I/Os deep in the file than at the front.
	buf := make([]byte, bs)
	fs.store.ResetStats()
	if err := fs.ReadAt("log", 0, buf); err != nil {
		t.Fatal(err)
	}
	frontReads := fs.store.Stats().Reads
	sz, _ := fs.Size("log")
	fs.store.ResetStats()
	if err := fs.ReadAt("log", sz-bs, buf); err != nil {
		t.Fatal(err)
	}
	tailReads := fs.store.Stats().Reads
	if tailReads <= frontReads {
		t.Errorf("tail read %d reads <= front read %d", tailReads, frontReads)
	}
}

func TestBackupReadsWholeFile(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	bs := fs.store.blockSize
	for i := 0; i < 20; i++ {
		if err := fs.Append("f", make([]byte, bs)); err != nil {
			t.Fatal(err)
		}
	}
	reads, err := fs.BackupReads("f")
	if err != nil {
		t.Fatal(err)
	}
	if reads < 20 {
		t.Errorf("backup reads = %d, want >= file blocks", reads)
	}
}

func TestScatteredAllocationSeeks(t *testing.T) {
	// Two files appended alternately end up interleaved: sequential reads of
	// one file seek on every block.
	fs := newFS(t)
	_ = fs.Create("a")
	_ = fs.Create("b")
	bs := fs.store.blockSize
	for i := 0; i < 40; i++ {
		_ = fs.Append("a", make([]byte, bs))
		_ = fs.Append("b", make([]byte, bs))
	}
	buf := make([]byte, bs)
	fs.store.ResetStats()
	for i := 8; i < 40; i++ { // past the direct region for realism
		if err := fs.ReadAt("a", i*bs, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := fs.store.Stats()
	if s.Seeks < 32 {
		t.Errorf("interleaved file read seeks = %d, want ~1 per block", s.Seeks)
	}
}

func TestMaxFileSize(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	// Direct, single-indirect and double-indirect blocks, 4-byte pointers.
	ptrs := fs.store.blockSize / 4
	blocks := NumDirect + ptrs + ptrs*ptrs
	if _, err := fs.blockFor(fs.files["f"], blocks-1, true); err != nil {
		t.Fatalf("last file block: %v", err)
	}
	if _, err := fs.blockFor(fs.files["f"], blocks, true); err == nil {
		t.Error("a file block past the double-indirect range was mapped")
	}
}

func TestRewriteInPlace(t *testing.T) {
	fs := newFS(t)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("f", []byte("original content here")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rewrite("f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if sz, _ := fs.Size("f"); sz != 3 {
		t.Errorf("size after rewrite = %d", sz)
	}
	got := make([]byte, 3)
	if err := fs.ReadAt("f", 0, got); err != nil || string(got) != "new" {
		t.Fatalf("read after rewrite: %q, %v", got, err)
	}
	// Growing rewrite allocates.
	big := bytes.Repeat([]byte{7}, 5000)
	if err := fs.Rewrite("f", big); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 5000)
	if err := fs.ReadAt("f", 0, back); err != nil || !bytes.Equal(back, big) {
		t.Fatalf("grown rewrite: %v", err)
	}
	if err := fs.Rewrite("missing", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("rewrite missing: %v", err)
	}
}
