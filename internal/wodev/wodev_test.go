package wodev

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"
	"testing/quick"
)

func fill(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestMemAppendRead(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 256, Capacity: 8})
	if d.BlockSize() != 256 || d.Capacity() != 8 {
		t.Fatalf("geometry: %d/%d", d.BlockSize(), d.Capacity())
	}
	for i := 0; i < 3; i++ {
		idx, err := d.AppendBlock(fill(256, byte(i+1)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if idx != i {
			t.Fatalf("append %d returned index %d", i, idx)
		}
	}
	if d.Written() != 3 {
		t.Fatalf("Written = %d, want 3", d.Written())
	}
	buf := make([]byte, 256)
	for i := 0; i < 3; i++ {
		if err := d.ReadBlock(i, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf, fill(256, byte(i+1))) {
			t.Fatalf("block %d contents wrong", i)
		}
	}
}

func TestMemUnwrittenRead(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	buf := make([]byte, 128)
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrUnwritten) {
		t.Errorf("unwritten read: %v", err)
	}
	if err := d.ReadBlock(9, buf); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out of range read: %v", err)
	}
	if err := d.ReadBlock(0, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestMemWriteOnceEnforced(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	if _, err := d.AppendBlock(fill(128, 1)); err != nil {
		t.Fatal(err)
	}
	// WriteAt below the written portion must fail.
	if err := d.WriteAt(0, fill(128, 2)); !errors.Is(err, ErrRewrite) {
		t.Errorf("rewrite via WriteAt: %v", err)
	}
	// WriteAt beyond the end must fail (would leave a hole).
	if err := d.WriteAt(3, fill(128, 2)); !errors.Is(err, ErrRewrite) {
		t.Errorf("hole via WriteAt: %v", err)
	}
	// WriteAt exactly at the end succeeds.
	if err := d.WriteAt(1, fill(128, 2)); err != nil {
		t.Errorf("WriteAt end: %v", err)
	}
}

func TestMemBadBlockSize(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	if _, err := d.AppendBlock(fill(64, 1)); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("short append: %v", err)
	}
}

func TestMemFull(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 2})
	for i := 0; i < 2; i++ {
		if _, err := d.AppendBlock(fill(128, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AppendBlock(fill(128, 1)); !errors.Is(err, ErrFull) {
		t.Errorf("append past capacity: %v", err)
	}
}

func TestMemInvalidate(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	if _, err := d.AppendBlock(fill(128, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	err := d.ReadBlock(0, buf)
	if !errors.Is(err, ErrInvalidated) {
		t.Fatalf("read invalidated: %v", err)
	}
	if !bytes.Equal(buf, fill(128, 0xFF)) {
		t.Error("invalidated block not all ones")
	}
}

func TestMemInvalidateUnwrittenConsumed(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	if err := d.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	idx, err := d.AppendBlock(fill(128, 7))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("append after invalidating block 0 landed at %d, want 1", idx)
	}
}

func TestMemDamageWritten(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	if _, err := d.AppendBlock(fill(128, 3)); err != nil {
		t.Fatal(err)
	}
	if err := d.Damage(0, fill(128, 0xAB)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("damaged block read should succeed with garbage: %v", err)
	}
	if !bytes.Equal(buf, fill(128, 0xAB)) {
		t.Error("damaged block did not read back garbage")
	}
}

func TestMemDamageUnwritten(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	if err := d.Damage(0, nil); err != nil {
		t.Fatal(err)
	}
	_, err := d.AppendBlock(fill(128, 1))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("append onto damaged unwritten block: %v", err)
	}
	// The service invalidates such a block and the next append skips it.
	if err := d.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	idx, err := d.AppendBlock(fill(128, 1))
	if err != nil || idx != 1 {
		t.Fatalf("append after invalidation: idx=%d err=%v", idx, err)
	}
}

func TestMemStats(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 16})
	for i := 0; i < 4; i++ {
		if _, err := d.AppendBlock(fill(128, 1)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 128)
	// Sequential reads 0,1,2 then a jump to 0: 2 seeks (first read, jump).
	for _, i := range []int{0, 1, 2, 0} {
		if err := d.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Reads != 4 || s.Appends != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.Seeks != 2 {
		t.Errorf("seeks = %d, want 2", s.Seeks)
	}
	d.ResetStats()
	if s := d.Stats(); s.Reads != 0 {
		t.Errorf("reset stats = %+v", s)
	}
}

func TestMemClosed(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 4})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBlock(fill(128, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
	if err := d.ReadBlock(0, make([]byte, 128)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
}

func TestFindEndReported(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 64})
	for i := 0; i < 10; i++ {
		if _, err := d.AppendBlock(fill(128, 1)); err != nil {
			t.Fatal(err)
		}
	}
	end, err := FindEnd(d)
	if err != nil || end != 10 {
		t.Fatalf("FindEnd = %d, %v; want 10", end, err)
	}
}

func TestFindEndBinarySearch(t *testing.T) {
	for _, written := range []int{0, 1, 5, 63, 64} {
		d := NewMem(MemOptions{BlockSize: 128, Capacity: 64, ReportEndUnknown: true})
		for i := 0; i < written; i++ {
			if _, err := d.AppendBlock(fill(128, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if d.Written() != EndUnknown {
			t.Fatal("device reports end despite ReportEndUnknown")
		}
		end, err := FindEnd(d)
		if err != nil {
			t.Fatalf("written=%d: %v", written, err)
		}
		if end != written {
			t.Errorf("written=%d: FindEnd = %d", written, end)
		}
	}
}

func TestFindEndProbeCountLogarithmic(t *testing.T) {
	d := NewMem(MemOptions{BlockSize: 128, Capacity: 1 << 12, ReportEndUnknown: true})
	for i := 0; i < 1000; i++ {
		if _, err := d.AppendBlock(fill(128, 1)); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	if _, err := FindEnd(d); err != nil {
		t.Fatal(err)
	}
	if reads := d.Stats().Reads; reads > 14 { // log2(4096)=12 probes + first + slack
		t.Errorf("binary search used %d reads for 4096-block volume", reads)
	}
}

func TestFindEndProperty(t *testing.T) {
	f := func(w uint16) bool {
		written := int(w % 200)
		d := NewMem(MemOptions{BlockSize: 128, Capacity: 200, ReportEndUnknown: true})
		for i := 0; i < written; i++ {
			if _, err := d.AppendBlock(fill(128, 1)); err != nil {
				return false
			}
		}
		end, err := FindEnd(d)
		return err == nil && end == written
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := t.TempDir() + "/vol0"
	d, err := OpenFile(path, FileOptions{BlockSize: 256, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.AppendBlock(fill(256, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Invalidate(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: written portion persists; invalidated block stays invalid.
	d2, err := OpenFile(path, FileOptions{BlockSize: 256, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Written() != 5 {
		t.Fatalf("reopened Written = %d, want 5", d2.Written())
	}
	buf := make([]byte, 256)
	if err := d2.ReadBlock(1, buf); err != nil || !bytes.Equal(buf, fill(256, 2)) {
		t.Fatalf("block 1 after reopen: %v", err)
	}
	if err := d2.ReadBlock(2, buf); !errors.Is(err, ErrInvalidated) {
		t.Fatalf("invalidated block after reopen: %v", err)
	}
	if err := d2.ReadBlock(5, buf); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("unwritten after reopen: %v", err)
	}
	// Write-once still enforced across reopen.
	if err := d2.WriteAt(1, fill(256, 9)); !errors.Is(err, ErrRewrite) {
		t.Fatalf("rewrite after reopen: %v", err)
	}
}

func TestFileDeviceTornBlockTruncated(t *testing.T) {
	path := t.TempDir() + "/vol0"
	d, err := OpenFile(path, FileOptions{BlockSize: 256, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendBlock(fill(256, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write by appending a partial block to the file.
	if err := appendBytes(path, fill(100, 9)); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFile(path, FileOptions{BlockSize: 256, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Written() != 1 {
		t.Errorf("Written after torn block = %d, want 1", d2.Written())
	}
	// The next append takes the torn block's place.
	if idx, err := d2.AppendBlock(fill(256, 2)); err != nil || idx != 1 {
		t.Fatalf("append over the torn block: index %d, %v", idx, err)
	}
	buf := make([]byte, 256)
	if err := d2.ReadBlock(1, buf); err != nil || !bytes.Equal(buf, fill(256, 2)) {
		t.Errorf("block 1 after the append: %v", err)
	}
}

// TestFileDeviceWrongBlockSizeKeepsTheFile: opening a volume at another block
// size than it was written with must not cost it a byte — what looks like a
// torn block at the wrong size is whole blocks at the right one.
func TestFileDeviceWrongBlockSizeKeepsTheFile(t *testing.T) {
	path := t.TempDir() + "/vol0"
	d, err := OpenFile(path, FileOptions{BlockSize: 256, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := d.AppendBlock(fill(256, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	wrong, err := OpenFile(path, FileOptions{BlockSize: 1024, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	wrong.Close()
	d, err = OpenFile(path, FileOptions{BlockSize: 256, Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, 256)
	if err := d.ReadBlock(6, buf); d.Written() != 7 || err != nil || !bytes.Equal(buf, fill(256, 7)) {
		t.Errorf("after a wrong-size open: %d blocks written, block 6: %v", d.Written(), err)
	}
}

func TestFileDeviceRejectsAllOnesPayload(t *testing.T) {
	d, err := OpenFile(t.TempDir()+"/v", FileOptions{BlockSize: 128, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AppendBlock(fill(128, 0xFF)); err == nil {
		t.Error("all-ones payload accepted; reserved for invalidation marker")
	}
}

// TestWriteAtConcurrentSameIndex: of N concurrent WriteAt(idx) exactly one
// lands, the rest are ErrRewrite, and nothing is written past idx — the
// position check and the append are one critical section on both devices.
func TestWriteAtConcurrentSameIndex(t *testing.T) {
	const rounds, writers = 500, 16
	file, err := OpenFile(t.TempDir()+"/v", FileOptions{BlockSize: 128, Capacity: rounds})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, d := range map[string]Device{
		"file": file,
		"mem":  NewMem(MemOptions{BlockSize: 128, Capacity: rounds}),
	} {
		for idx := 0; idx < rounds; idx++ {
			errs := make([]error, writers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					errs[w] = d.WriteAt(idx, fill(128, byte(w)))
				}()
			}
			close(start)
			wg.Wait()
			landed := 0
			for _, err := range errs {
				if err == nil {
					landed++
				} else if !errors.Is(err, ErrRewrite) {
					t.Fatalf("%s: WriteAt(%d): %v, want ErrRewrite", name, idx, err)
				}
			}
			if landed != 1 || d.Written() != idx+1 {
				t.Fatalf("%s: index %d: %d writers landed, Written()=%d; want 1 and %d",
					name, idx, landed, d.Written(), idx+1)
			}
		}
	}
}

func appendBytes(path string, b []byte) error {
	f, err := osOpenAppend(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(b)
	return err
}

func osOpenAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}
