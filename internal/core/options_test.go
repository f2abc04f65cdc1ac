package core

import (
	"strings"
	"testing"

	"clio/internal/volume"
	"clio/internal/wodev"
)

func TestNewRejectsGeometryMismatch(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 512, Capacity: 64})
	if _, err := New(dev, Options{BlockSize: 1024}); err == nil {
		t.Error("block size mismatch accepted")
	}
}

func TestOpenValidatesVolumeParameters(t *testing.T) {
	tc := &testClock{}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 64})
	s, err := New(dev, Options{BlockSize: 256, Degree: 4, Now: tc.Now})
	if err != nil {
		t.Fatal(err)
	}
	s.Crash()
	// Reopen with the wrong degree: refused (the sequence was formatted
	// with N=4 recorded in the volume header).
	if _, err := Open([]wodev.Device{dev}, Options{BlockSize: 256, Degree: 8, Now: tc.Now}); err == nil {
		t.Error("degree mismatch accepted")
	}
	// Reopen with the wrong block size: refused at mount.
	if _, err := Open([]wodev.Device{dev}, Options{BlockSize: 512, Degree: 4, Now: tc.Now}); err == nil {
		t.Error("block size mismatch accepted")
	}
	if _, err := Open(nil, Options{}); err == nil {
		t.Error("no devices accepted")
	}
	// Correct parameters still open.
	s2, err := Open([]wodev.Device{dev}, Options{BlockSize: 256, Degree: 4, Now: tc.Now})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestClosedServiceRefusesEverything(t *testing.T) {
	s, _ := newTestService(t, Options{})
	id := mustCreate(t, s, "/x")
	cur, err := s.OpenCursor("/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := s.Append(id, []byte("x"), AppendOptions{}); err != ErrClosed {
		t.Errorf("append: %v", err)
	}
	if _, err := s.CreateLog("/y", 0, ""); err != ErrClosed {
		t.Errorf("create: %v", err)
	}
	if _, err := s.OpenCursor("/x"); err != ErrClosed {
		t.Errorf("open cursor: %v", err)
	}
	if _, err := cur.Next(); err != ErrClosed {
		t.Errorf("cursor next: %v", err)
	}
	if _, err := s.ReadAt(0, 0); err != ErrClosed {
		t.Errorf("read at: %v", err)
	}
	if err := s.Force(); err != ErrClosed {
		t.Errorf("force: %v", err)
	}
}

func TestCatalogPathValidationThroughService(t *testing.T) {
	s, _ := newTestService(t, Options{})
	defer s.Close()
	if _, err := s.CreateLog("relative", 0, ""); err == nil {
		t.Error("relative path accepted")
	}
	if _, err := s.CreateLog("/missing/child", 0, ""); err == nil {
		t.Error("create under missing parent accepted")
	}
	if _, err := s.Resolve(""); err == nil {
		t.Error("empty path resolved")
	}
	if _, err := s.OpenCursor("/nope"); err == nil {
		t.Error("cursor on missing path")
	}
	if err := s.SetPerms("/nope", 0); err == nil {
		t.Error("SetPerms on missing path")
	}
	if err := s.Retire("/nope"); err == nil {
		t.Error("Retire on missing path")
	}
	if _, err := s.Stat("/nope"); err == nil {
		t.Error("Stat on missing path")
	}
	if _, err := s.List("/nope"); err == nil {
		t.Error("List on missing path")
	}
	if _, err := s.PathOf(999); err == nil {
		t.Error("PathOf unknown id")
	}
}

func TestAllocatorFailureSurfaces(t *testing.T) {
	boom := "allocator exploded"
	tc := &testClock{}
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 8})
	s, err := New(dev, Options{
		BlockSize: 256, Degree: 4, Now: tc.Now,
		Allocate: func(_ volume.SeqID, _ uint32, _ uint64, _ int) (wodev.Device, error) {
			return nil, errString(boom)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := mustCreate(t, s, "/x")
	var lastErr error
	for i := 0; i < 50 && lastErr == nil; i++ {
		_, lastErr = s.Append(id, make([]byte, 100), AppendOptions{Forced: true})
	}
	if lastErr == nil || !strings.Contains(lastErr.Error(), boom) {
		t.Errorf("allocator failure not surfaced: %v", lastErr)
	}
}

type errString string

func (e errString) Error() string { return string(e) }
