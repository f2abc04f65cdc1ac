package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoginTraceDeterministic(t *testing.T) {
	a := NewLoginTrace(42, 16)
	b := NewLoginTrace(42, 16)
	for i := 0; i < 100; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Log != ob.Log || !bytes.Equal(oa.Data, ob.Data) {
			t.Fatalf("divergence at op %d", i)
		}
	}
}

func TestLoginTraceCalibration(t *testing.T) {
	tr := NewLoginTrace(1, 16)
	logs := map[string]bool{}
	for i := 0; i < 1000; i++ {
		op := tr.Next()
		// §3.5 calibration: ~60-byte entries → c ≈ 1/16 on 1 KiB blocks.
		if len(op.Data) != 60 {
			t.Fatalf("entry size %d", len(op.Data))
		}
		if !strings.HasPrefix(op.Log, "/sessions/") {
			t.Fatalf("log %q", op.Log)
		}
		logs[op.Log] = true
	}
	if len(logs) != 16 {
		t.Errorf("%d distinct sublogs, want 16", len(logs))
	}
	if len(tr.Logs()) != 17 { // parent + 16 users
		t.Errorf("Logs() = %d", len(tr.Logs()))
	}
}

func TestMailTrace(t *testing.T) {
	tr := NewMailTrace(7, 4)
	for i := 0; i < 50; i++ {
		op := tr.Next()
		if !op.Forced || !op.Timestamped {
			t.Fatal("mail deliveries must be forced and timestamped")
		}
		if len(op.Data) < 200 || len(op.Data) >= 2000 {
			t.Fatalf("body size %d", len(op.Data))
		}
	}
}

func TestTxnTrace(t *testing.T) {
	tr := NewTxnTrace(1, 50)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		op := tr.Next()
		if len(op.Data) != 50 || !op.Forced {
			t.Fatalf("op: %d bytes forced=%v", len(op.Data), op.Forced)
		}
		if seen[string(op.Data)] {
			t.Fatal("duplicate txid")
		}
		seen[string(op.Data)] = true
	}
}

// growthTrace appends fixed-size chunks to one ever-growing log.
type growthTrace struct {
	chunk int
}

// newGrowthTrace returns a trace appending chunkSize-byte entries.
func newGrowthTrace(chunkSize int) *growthTrace { return &growthTrace{chunk: chunkSize} }

// Logs implements Trace.
func (t *growthTrace) Logs() []string { return []string{"/growing"} }

// Next implements Trace.
func (t *growthTrace) Next() Op {
	return Op{Log: "/growing", Data: make([]byte, t.chunk)}
}

func TestGrowthTrace(t *testing.T) {
	tr := newGrowthTrace(512)
	op := tr.Next()
	if len(op.Data) != 512 || op.Log != "/growing" {
		t.Fatalf("op: %+v", op)
	}
}

func TestMixedTrace(t *testing.T) {
	m := NewMixedTrace(5, []Trace{NewTxnTrace(1, 50), newGrowthTrace(100)}, []int{1, 3})
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		counts[m.Next().Log]++
	}
	if counts["/growing"] <= counts["/txnlog"] {
		t.Errorf("weights not respected: %v", counts)
	}
	if len(m.Logs()) != 2 {
		t.Errorf("Logs: %v", m.Logs())
	}
}
