package wodev

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// The write-once policy is one rule with two media under it. Every fault and
// crash property test in the repository runs on MemDevice while production
// runs FileDevice, so the two must answer every call alike: the same index,
// the same error, the same bytes, the same write point, the same counters.

// devOp is one call of the Device interface.
type devOp struct {
	kind string // append, writeAt, invalidate, read, close, reopen
	idx  int
	data []byte
}

func (o devOp) String() string {
	switch o.kind {
	case "append", "writeAt":
		what := fmt.Sprintf("%d bytes of %#02x", len(o.data), o.data[:min(1, len(o.data))])
		if o.kind == "append" {
			return "AppendBlock(" + what + ")"
		}
		return fmt.Sprintf("WriteAt(%d, %s)", o.idx, what)
	case "invalidate":
		return fmt.Sprintf("Invalidate(%d)", o.idx)
	case "read":
		return fmt.Sprintf("ReadBlock(%d)", o.idx)
	}
	return o.kind
}

// do runs the call and renders everything it answered.
func (o devOp) do(d Device) string {
	switch o.kind {
	case "append":
		idx, err := d.AppendBlock(o.data)
		if err != nil {
			return fmt.Sprintf("err=%v", err)
		}
		return fmt.Sprintf("idx=%d", idx)
	case "writeAt":
		return fmt.Sprintf("err=%v", d.WriteAt(o.idx, o.data))
	case "invalidate":
		return fmt.Sprintf("err=%v", d.Invalidate(o.idx))
	case "read":
		dst := make([]byte, d.BlockSize())
		err := d.ReadBlock(o.idx, dst)
		return fmt.Sprintf("err=%v data=%x", err, dst)
	case "close":
		return fmt.Sprintf("err=%v", d.Close())
	}
	panic(o.kind)
}

// devPair is the same volume on both media.
type devPair struct {
	t    *testing.T
	path string
	opt  FileOptions
	mem  *MemDevice
	file *FileDevice
	log  []string
}

func newDevPair(t *testing.T, blockSize, capacity int) *devPair {
	p := &devPair{t: t, path: filepath.Join(t.TempDir(), "vol"), opt: FileOptions{BlockSize: blockSize, Capacity: capacity}}
	p.mem = NewMem(MemOptions{BlockSize: blockSize, Capacity: capacity})
	p.reopen()
	return p
}

// reopen replaces the file side's handle, as a restart does; the memory side
// has no restart, only its counters start over with the file handle's.
func (p *devPair) reopen() {
	p.t.Helper()
	if p.file != nil {
		p.file.Close()
	}
	file, err := OpenFile(p.path, p.opt)
	if err != nil {
		p.t.Fatal(err)
	}
	p.file = file
	p.mem.ResetStats()
}

// step runs op on both and reports the first thing they disagree on.
func (p *devPair) step(op devOp) (diverged string) {
	if op.kind == "reopen" {
		p.reopen()
	} else if m, f := op.do(p.mem), op.do(p.file); m != f {
		return fmt.Sprintf("%v: mem %s, file %s", op, m, f)
	}
	p.log = append(p.log, op.String())
	if m, f := p.mem.Written(), p.file.Written(); m != f {
		return fmt.Sprintf("after %v: Written() mem %d, file %d", op, m, f)
	}
	if m, f := p.mem.Stats(), p.file.Stats(); m != f {
		return fmt.Sprintf("after %v: Stats() mem %+v, file %+v", op, m, f)
	}
	return ""
}

// TestMemAndFileDevicesAgree runs seeded sequences of every call — appends
// (the odd one all ones, or the wrong length), WriteAt and Invalidate behind,
// at and ahead of the write point and off the volume, reads everywhere,
// restarts of the file side, and at the end every call again after Close —
// against both devices, comparing each answer, Written() and Stats() step by
// step. Three cases that once differed lead the table by name.
func TestMemAndFileDevicesAgree(t *testing.T) {
	const blockSize, capacity = 64, 24
	block := func(b byte) []byte { return bytes.Repeat([]byte{b}, blockSize) }
	type script struct {
		name string
		ops  []devOp
	}
	afterClose := []devOp{
		{kind: "close"}, {kind: "writeAt", idx: 0, data: block(2)}, {kind: "writeAt", idx: 1, data: block(2)},
		{kind: "append", data: block(2)}, {kind: "invalidate", idx: 0}, {kind: "read", idx: 0}, {kind: "close"},
	}
	scripts := []script{
		{"invalidate ahead of the write point", []devOp{
			{kind: "invalidate", idx: 5}, {kind: "read", idx: 2}, {kind: "read", idx: 5},
			{kind: "append", data: block(1)}, {kind: "reopen"}, {kind: "read", idx: 2},
		}},
		{"all-ones payload", []devOp{
			{kind: "append", data: block(0xFF)}, {kind: "writeAt", idx: 0, data: block(0xFF)}, {kind: "read", idx: 0},
		}},
		{"calls after close", append([]devOp{{kind: "append", data: block(1)}}, afterClose...)},
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		written := 0 // roughly; only steers the choice of indices
		near := func() int { return written - 2 + rng.Intn(5) }
		var ops []devOp
		for len(ops) < 120 {
			data := block(byte(1 + rng.Intn(250)))
			switch r := rng.Intn(100); {
			case r < 3:
				data = block(0xFF)
			case r < 6:
				data = data[:rng.Intn(blockSize)]
			}
			op := devOp{kind: "read", idx: rng.Intn(capacity+2) - 1}
			switch r := rng.Intn(100); {
			case r < 25:
				op = devOp{kind: "append", data: data}
				written++
			case r < 40:
				op = devOp{kind: "writeAt", idx: near(), data: data}
				if op.idx == written {
					written++
				}
			case r < 55:
				op = devOp{kind: "invalidate", idx: near()}
				if op.idx == written {
					written++
				}
			case r < 60:
				op = devOp{kind: "reopen"}
			}
			if written > capacity-2 && rng.Intn(3) > 0 { // do not sit on a full volume for long
				break
			}
			ops = append(ops, op)
		}
		scripts = append(scripts, script{fmt.Sprintf("seed %d", seed), append(ops, afterClose...)})
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			p := newDevPair(t, blockSize, capacity)
			defer p.file.Close()
			for i, op := range sc.ops {
				if d := p.step(op); d != "" {
					t.Fatalf("step %d, %s\nafter: %v", i, d, p.log)
				}
			}
		})
	}
}
