// Package atomicfs implements the extension the paper names as planned
// work in §6: "we plan to implement atomic update of (regular) files, using
// log files for recovery."
//
// It layers write-ahead redo logging over the conventional rewriteable file
// system (internal/rewritefs), with a Clio log file as the journal:
//
//  1. a transaction's updates are encoded into a single log entry and
//     force-written to the journal log file — the commit point. A log
//     entry is atomic by construction: a torn fragment chain is invisible
//     to readers, so a crash mid-commit leaves no trace;
//  2. the updates are then applied to the rewriteable file system, in any
//     order, possibly interrupted by a crash;
//  3. recovery replays every committed transaction against the file
//     system. Updates are idempotent (absolute-offset writes, creates), so
//     re-applying is harmless.
//
// This is exactly the history-based structuring argument of §4: the
// journal is the truth, the rewriteable file system a cached projection.
package atomicfs

import (
	"errors"
	"fmt"
	"io"

	"clio/internal/core"
	"clio/internal/rewritefs"
	"clio/internal/wire"
)

// Errors.
var (
	// ErrTxnClosed indicates an operation on a committed/aborted transaction.
	ErrTxnClosed = errors.New("atomicfs: transaction closed")
	// ErrBadJournal indicates an undecodable journal record.
	ErrBadJournal = errors.New("atomicfs: malformed journal record")
)

// recCommit is the kind byte of a journal record: a committed transaction.
const recCommit = 1

// Op kinds within a transaction.
const (
	opCreate  = 1
	opWriteAt = 2
)

// op is one update within a transaction.
type op struct {
	kind   byte
	file   string
	offset int
	data   []byte
}

// FS is an atomically-updatable file system: a rewriteable FS plus a
// journal log file.
type FS struct {
	fs  *rewritefs.FS
	svc *core.Service
	jID uint16
	// applyHook, when set, runs before each op application (tests inject
	// crashes here).
	applyHook func(opIndex int) error
}

// New opens (creating if needed) an atomic FS whose journal lives at the
// given log path, and runs recovery: every transaction committed to the
// journal is re-applied to fs.
func New(svc *core.Service, fs *rewritefs.FS, journalPath string) (*FS, error) {
	jID, err := svc.Resolve(journalPath)
	if err != nil {
		if jID, err = svc.CreateLog(journalPath, 0o600, "atomicfs"); err != nil {
			return nil, err
		}
	}
	a := &FS{fs: fs, svc: svc, jID: jID}
	if err := a.recover(); err != nil {
		return nil, err
	}
	return a, nil
}

// Files returns the underlying rewriteable file system (reads go straight
// through; writes must go through transactions).
func (a *FS) Files() *rewritefs.FS { return a.fs }

// SetApplyHook installs a test hook invoked before each op application.
func (a *FS) SetApplyHook(h func(opIndex int) error) { a.applyHook = h }

// Txn is an open transaction.
type Txn struct {
	a      *FS
	ops    []op
	closed bool
}

// Begin starts a transaction.
func (a *FS) Begin() *Txn { return &Txn{a: a} }

// Create records a file creation.
func (t *Txn) Create(file string) error {
	return t.add(op{kind: opCreate, file: file})
}

// WriteAt records an absolute-offset write.
func (t *Txn) WriteAt(file string, offset int, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	return t.add(op{kind: opWriteAt, file: file, offset: offset, data: cp})
}

func (t *Txn) add(o op) error {
	if t.closed {
		return ErrTxnClosed
	}
	t.ops = append(t.ops, o)
	return nil
}

// Commit force-writes the transaction to the journal (the commit point)
// and applies it to the file system. If the process dies during apply, the
// next New replays the journal and completes the updates.
func (t *Txn) Commit() error {
	if t.closed {
		return ErrTxnClosed
	}
	t.closed = true
	if len(t.ops) == 0 {
		return nil
	}
	payload := encodeCommit(t.ops)
	_, err := t.a.svc.Append(t.a.jID, payload, core.AppendOptions{Timestamped: true, Forced: true})
	if err != nil {
		return fmt.Errorf("atomicfs: journal write: %w", err)
	}
	if err := t.a.apply(t.ops); err != nil {
		return fmt.Errorf("atomicfs: apply (will be completed by recovery): %w", err)
	}
	return nil
}

// apply runs ops against the file system, invoking the test hook.
func (a *FS) apply(ops []op) error {
	for i, o := range ops {
		if a.applyHook != nil {
			if err := a.applyHook(i); err != nil {
				return err
			}
		}
		if err := a.applyOne(o); err != nil {
			return err
		}
	}
	return nil
}

func (a *FS) applyOne(o op) error {
	switch o.kind {
	case opCreate:
		err := a.fs.Create(o.file)
		if err != nil && err.Error() == fmt.Sprintf("rewritefs: %q exists", o.file) {
			return nil // idempotent replay
		}
		return err
	case opWriteAt:
		// Extend with zeros as needed, then overwrite: idempotent.
		size, err := a.fs.Size(o.file)
		if err != nil {
			return err
		}
		if end := o.offset + len(o.data); end > size {
			if err := a.fs.Append(o.file, make([]byte, end-size)); err != nil {
				return err
			}
		}
		return a.writeAt(o.file, o.offset, o.data)
	default:
		return fmt.Errorf("%w: op kind %d", ErrBadJournal, o.kind)
	}
}

// writeAt performs an absolute write through rewritefs (which only has
// Append); it overwrites in place via block-level read-modify-write.
func (a *FS) writeAt(file string, offset int, data []byte) error {
	// rewritefs exposes ReadAt/Append only; emulate WriteAt by rewriting
	// the affected region through its API. For simplicity we reconstruct
	// the whole file when overwriting interior bytes.
	size, err := a.fs.Size(file)
	if err != nil {
		return err
	}
	if offset == size {
		return a.fs.Append(file, data)
	}
	buf := make([]byte, size)
	if size > 0 {
		if err := a.fs.ReadAt(file, 0, buf); err != nil {
			return err
		}
	}
	end := offset + len(data)
	if end > len(buf) {
		buf = append(buf, make([]byte, end-len(buf))...)
	}
	copy(buf[offset:end], data)
	return a.fs.Rewrite(file, buf)
}

// recover replays every committed transaction.
func (a *FS) recover() error {
	cur, err := a.svc.OpenCursorID(a.jID)
	if err != nil {
		return err
	}
	for {
		e, err := cur.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if len(e.Data) == 0 || e.Data[0] != recCommit {
			continue
		}
		ops, derr := decodeCommit(e.Data)
		if derr != nil {
			return derr
		}
		if err := a.apply(ops); err != nil {
			return fmt.Errorf("atomicfs: recovery replay: %w", err)
		}
	}
}

// encodeCommit serializes a transaction.
func encodeCommit(ops []op) []byte {
	out := []byte{recCommit}
	out = wire.PutUvarint(out, uint64(len(ops)))
	for _, o := range ops {
		out = append(out, o.kind)
		out = wire.PutUvarint(out, uint64(len(o.file)))
		out = append(out, o.file...)
		out = wire.PutUvarint(out, uint64(o.offset))
		out = wire.PutUvarint(out, uint64(len(o.data)))
		out = append(out, o.data...)
	}
	return out
}

func decodeCommit(b []byte) ([]op, error) {
	if len(b) < 2 || b[0] != recCommit {
		return nil, ErrBadJournal
	}
	rest := b[1:]
	count, n, err := wire.Uvarint(rest)
	if err != nil {
		return nil, ErrBadJournal
	}
	rest = rest[n:]
	ops := make([]op, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(rest) < 1 {
			return nil, ErrBadJournal
		}
		o := op{kind: rest[0]}
		rest = rest[1:]
		fl, n, err := wire.Uvarint(rest)
		if err != nil || uint64(len(rest)) < uint64(n)+fl {
			return nil, ErrBadJournal
		}
		rest = rest[n:]
		o.file = string(rest[:fl])
		rest = rest[fl:]
		off, n, err := wire.Uvarint(rest)
		if err != nil {
			return nil, ErrBadJournal
		}
		o.offset = int(off)
		rest = rest[n:]
		dl, n, err := wire.Uvarint(rest)
		if err != nil || uint64(len(rest)) < uint64(n)+dl {
			return nil, ErrBadJournal
		}
		rest = rest[n:]
		o.data = append([]byte(nil), rest[:dl]...)
		rest = rest[dl:]
		ops = append(ops, o)
	}
	return ops, nil
}
