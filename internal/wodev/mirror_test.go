package wodev

import (
	"bytes"
	"errors"
	"testing"
)

func mirrorPair(t *testing.T) (*Mirror, *MemDevice, *MemDevice) {
	t.Helper()
	a := NewMem(MemOptions{BlockSize: 128, Capacity: 32})
	b := NewMem(MemOptions{BlockSize: 128, Capacity: 32})
	m, err := NewMirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m, a, b
}

func TestMirrorWritesBothReplicas(t *testing.T) {
	m, a, b := mirrorPair(t)
	idx, err := m.AppendBlock(fill(128, 7))
	if err != nil || idx != 0 {
		t.Fatalf("append: %d, %v", idx, err)
	}
	buf := make([]byte, 128)
	for i, d := range []*MemDevice{a, b} {
		if err := d.ReadBlock(0, buf); err != nil || !bytes.Equal(buf, fill(128, 7)) {
			t.Errorf("replica %d: %v", i, err)
		}
	}
	if m.Written() != 1 {
		t.Errorf("Written = %d", m.Written())
	}
	if err := m.WriteAt(1, fill(128, 8)); err != nil {
		t.Fatal(err)
	}
	if m.Written() != 2 {
		t.Errorf("Written after WriteAt = %d", m.Written())
	}
}

func TestMirrorReadFallsOver(t *testing.T) {
	m, a, _ := mirrorPair(t)
	if _, err := m.AppendBlock(fill(128, 9)); err != nil {
		t.Fatal(err)
	}
	// Damage the primary's copy: plain ReadBlock returns the garbage (the
	// device cannot tell), but ReadValidated routes to the replica.
	if err := a.Damage(0, fill(128, 0xEE)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := m.ReadValidated(0, buf, func(b []byte) bool { return b[0] == 9 }); err != nil {
		t.Fatalf("ReadValidated: %v", err)
	}
	if buf[0] != 9 {
		t.Errorf("got %d", buf[0])
	}
	// With every replica bad, validation fails.
	if err := m.ReadValidated(0, buf, func(b []byte) bool { return false }); err == nil {
		t.Error("impossible validation succeeded")
	}
}

func TestMirrorUnwrittenAuthoritative(t *testing.T) {
	m, _, _ := mirrorPair(t)
	if err := m.ReadBlock(0, make([]byte, 128)); !errors.Is(err, ErrUnwritten) {
		t.Errorf("unwritten: %v", err)
	}
}

func TestMirrorInvalidateAndStats(t *testing.T) {
	m, a, b := mirrorPair(t)
	if _, err := m.AppendBlock(fill(128, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	for i, d := range []*MemDevice{a, b} {
		if err := d.ReadBlock(0, make([]byte, 128)); !errors.Is(err, ErrInvalidated) {
			t.Errorf("replica %d not invalidated: %v", i, err)
		}
	}
	if s := m.Stats(); s.Appends != 2 { // one append on each replica
		t.Errorf("stats: %+v", s)
	}
	m.ResetStats()
	if s := m.Stats(); s.Appends != 0 {
		t.Errorf("after reset: %+v", s)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendBlock(fill(128, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
}

func TestMirrorGeometry(t *testing.T) {
	a := NewMem(MemOptions{BlockSize: 128, Capacity: 32})
	b := NewMem(MemOptions{BlockSize: 128, Capacity: 64})
	if _, err := NewMirror(a, b); err == nil {
		t.Error("capacity mismatch accepted")
	}
	if _, err := NewMirror(); err == nil {
		t.Error("empty replica list accepted")
	}
	if m, err := NewMirror(a); err != nil || m.Replica(0) != a {
		t.Errorf("single replica: %v", err)
	}
}

func TestMirrorWrittenUnknownPropagates(t *testing.T) {
	a := NewMem(MemOptions{BlockSize: 128, Capacity: 32, ReportEndUnknown: true})
	b := NewMem(MemOptions{BlockSize: 128, Capacity: 32})
	m, err := NewMirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Written() != EndUnknown {
		t.Errorf("Written = %d, want EndUnknown", m.Written())
	}
}

func TestMirrorReplicaErrorAccounting(t *testing.T) {
	a := NewMem(MemOptions{BlockSize: 64, Capacity: 16})
	b := NewMem(MemOptions{BlockSize: 64, Capacity: 16})
	m, err := NewMirror(a, b)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := range data {
		data[i] = 0xAB
	}
	if _, err := m.AppendBlock(data); err != nil {
		t.Fatal(err)
	}
	// Damage the primary's copy: reads must fail over and account the error.
	if err := a.Damage(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := m.ReadValidated(0, dst, func(p []byte) bool { return p[0] == 0xAB }); err != nil {
		t.Fatalf("mirror read with damaged primary: %v", err)
	}
	if dst[0] != 0xAB {
		t.Fatal("read returned primary's garbage, not the replica copy")
	}
	errs := m.ReplicaErrors()
	if errs[0] != 1 || errs[1] != 0 {
		t.Fatalf("ReplicaErrors = %v, want [1 0]", errs)
	}
	if m.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", m.Failovers())
	}
	if m.LastReplicaError(0) == nil {
		t.Fatal("LastReplicaError(0) = nil")
	}
	if m.LastReplicaError(1) != nil {
		t.Fatalf("LastReplicaError(1) = %v, want nil", m.LastReplicaError(1))
	}
}
