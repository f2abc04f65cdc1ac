// Package histfs is the history-based file service sketched in §4.1 of the
// paper: a conventional-looking file service whose *only* permanent storage
// is the log service. Every update to a file's contents or properties is
// appended to the file's history log; the current contents are merely a
// cached summary that can always be rebuilt by replay — "a system's true,
// permanent state is based upon its execution history, with the 'current
// state' being merely a cached summary of the effect of this history" (§1).
//
// Consequences the paper promises, which this package delivers:
//
//   - any earlier version of a file can be extracted (ReadAsOf);
//   - deletion removes a file from the namespace but never destroys
//     history — archiving is built in;
//   - recovery needs no separate mechanism: dropping the cache and
//     replaying the logs reproduces the current state exactly.
package histfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"clio/internal/logapi"
	"clio/internal/wire"
)

// Errors.
var (
	// ErrNotExist indicates the file is absent (or deleted) at the
	// requested time.
	ErrNotExist = errors.New("histfs: file does not exist")
	// ErrExists indicates a Create of a live file.
	ErrExists = errors.New("histfs: file already exists")
	// ErrBadName indicates an unusable file name.
	ErrBadName = errors.New("histfs: invalid file name")
	// ErrBadRecord indicates an undecodable history record.
	ErrBadRecord = errors.New("histfs: malformed history record")
)

// Update kinds in a file history.
const (
	opCreate   = 1
	opWrite    = 2 // random-access write at an offset
	opTruncate = 3
	opDelete   = 4
	opSetMode  = 5
)

// FS is a history-based file system rooted at a log-file directory. It
// works against any logapi.Service — an in-process service, a sharded
// store, or a network client.
type FS struct {
	mu   sync.Mutex
	svc  logapi.Service
	root string
	// cache holds materialized current versions, keyed by file name. It is
	// a pure cache: Evict/recovery rebuilds entries by replay.
	cache map[string]*fileState
	// logs caches name → log-file id.
	logs map[string]logapi.ID
}

type fileState struct {
	data    []byte
	mode    uint16
	exists  bool
	replayT int64 // timestamp of the last replayed record
}

// Info describes a file's current state.
type Info struct {
	Name string
	Size int
	Mode uint16
	// Versions counts the history records for the file.
	Versions int
}

// New returns a history-based file system storing its histories under the
// given root log directory (created if absent, e.g. "/histfs").
func New(ctx context.Context, svc logapi.Service, root string) (*FS, error) {
	if !strings.HasPrefix(root, "/") {
		return nil, fmt.Errorf("%w: root %q", ErrBadName, root)
	}
	if _, err := svc.Resolve(ctx, root); err != nil {
		if _, err := svc.CreateLog(ctx, root, 0o755, "histfs"); err != nil {
			return nil, err
		}
	}
	return &FS{
		svc:   svc,
		root:  root,
		cache: make(map[string]*fileState),
		logs:  make(map[string]logapi.ID),
	}, nil
}

// escapeName maps a file name (which may contain slashes) to a single
// log-file name component.
func escapeName(name string) string {
	r := strings.NewReplacer("%", "%25", "/", "%2F")
	return r.Replace(name)
}

func validName(name string) bool {
	return name != "" && len(name) < 200 && !strings.ContainsRune(name, 0)
}

// logFor returns (creating if asked) the history log id for a file.
func (fs *FS) logFor(ctx context.Context, name string, create bool) (logapi.ID, error) {
	if id, ok := fs.logs[name]; ok {
		return id, nil
	}
	path := fs.root + "/" + escapeName(name)
	id, err := fs.svc.Resolve(ctx, path)
	if err == nil {
		fs.logs[name] = id
		return id, nil
	}
	if !create {
		return 0, ErrNotExist
	}
	id, err = fs.svc.CreateLog(ctx, path, 0o644, "histfs")
	if err != nil {
		return 0, err
	}
	fs.logs[name] = id
	return id, nil
}

// record encodes one history record.
func record(op byte, offset uint64, mode uint16, data []byte) []byte {
	out := []byte{op}
	out = wire.PutUvarint(out, offset)
	out = wire.PutUint16(out, mode)
	out = wire.PutUvarint(out, uint64(len(data)))
	return append(out, data...)
}

type update struct {
	op     byte
	offset uint64
	mode   uint16
	data   []byte
}

func decodeRecord(b []byte) (*update, error) {
	if len(b) < 1 {
		return nil, ErrBadRecord
	}
	u := &update{op: b[0]}
	rest := b[1:]
	off, n, err := wire.Uvarint(rest)
	if err != nil {
		return nil, ErrBadRecord
	}
	u.offset = off
	rest = rest[n:]
	mode, err := wire.Uint16(rest)
	if err != nil {
		return nil, ErrBadRecord
	}
	u.mode = mode
	rest = rest[2:]
	l, n, err := wire.Uvarint(rest)
	if err != nil {
		return nil, ErrBadRecord
	}
	rest = rest[n:]
	if uint64(len(rest)) < l {
		return nil, ErrBadRecord
	}
	u.data = rest[:l]
	return u, nil
}

// apply folds one update into a state.
func (st *fileState) apply(u *update, ts int64) {
	switch u.op {
	case opCreate:
		st.exists = true
		st.data = st.data[:0]
		st.mode = u.mode
	case opWrite:
		if !st.exists {
			return
		}
		end := int(u.offset) + len(u.data)
		for len(st.data) < end {
			st.data = append(st.data, 0)
		}
		copy(st.data[u.offset:end], u.data)
	case opTruncate:
		if !st.exists {
			return
		}
		size := int(u.offset)
		for len(st.data) < size {
			st.data = append(st.data, 0)
		}
		st.data = st.data[:size]
	case opDelete:
		st.exists = false
		st.data = nil
	case opSetMode:
		if st.exists {
			st.mode = u.mode
		}
	}
	st.replayT = ts
}

// appendUpdate logs an update and folds it into the cached state.
func (fs *FS) appendUpdate(ctx context.Context, name string, id logapi.ID, u []byte, force bool) error {
	ts, err := fs.svc.Append(ctx, id, u, logapi.AppendOptions{Timestamped: true, Forced: force})
	if err != nil {
		return err
	}
	if st, ok := fs.cache[name]; ok {
		dec, err := decodeRecord(u)
		if err != nil {
			return err
		}
		st.apply(dec, ts)
	}
	return nil
}

// state materializes the current state of a file by cache or replay.
func (fs *FS) state(ctx context.Context, name string) (*fileState, error) {
	if st, ok := fs.cache[name]; ok {
		return st, nil
	}
	st, _, err := fs.replay(ctx, name, 1<<62)
	if err != nil {
		return nil, err
	}
	fs.cache[name] = st
	return st, nil
}

// replay rebuilds a file state from its history up to and including asOf.
func (fs *FS) replay(ctx context.Context, name string, asOf int64) (*fileState, int, error) {
	if _, err := fs.logFor(ctx, name, false); err != nil {
		return nil, 0, err
	}
	cur, err := fs.svc.OpenCursor(ctx, fs.root+"/"+escapeName(name))
	if err != nil {
		return nil, 0, err
	}
	defer cur.Close()
	st := &fileState{}
	n := 0
	for {
		e, err := cur.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if e.Timestamp > asOf {
			break
		}
		u, derr := decodeRecord(e.Data)
		if derr != nil {
			continue // damaged record: that update is lost
		}
		st.apply(u, e.Timestamp)
		n++
	}
	return st, n, nil
}

// Create makes a new empty file.
func (fs *FS) Create(ctx context.Context, name string, mode uint16) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !validName(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	id, err := fs.logFor(ctx, name, true)
	if err != nil {
		return err
	}
	st, err := fs.state(ctx, name)
	if err != nil {
		return err
	}
	if st.exists {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	return fs.appendUpdate(ctx, name, id, record(opCreate, 0, mode, nil), true)
}

// Append appends data at the current end of the file.
func (fs *FS) Append(ctx context.Context, name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, err := fs.liveState(ctx, name)
	if err != nil {
		return err
	}
	off := len(st.data)
	return fs.mutate(ctx, name, record(opWrite, uint64(off), 0, data))
}

// Truncate sets the file size.
func (fs *FS) Truncate(ctx context.Context, name string, size int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mutate(ctx, name, record(opTruncate, uint64(size), 0, nil))
}

// Delete removes the file from the namespace. Its history — and therefore
// every version it ever had — remains readable via ReadAsOf.
func (fs *FS) Delete(ctx context.Context, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mutate(ctx, name, record(opDelete, 0, 0, nil))
}

func (fs *FS) liveState(ctx context.Context, name string) (*fileState, error) {
	if !validName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	st, err := fs.state(ctx, name)
	if err != nil {
		return nil, err
	}
	if !st.exists {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return st, nil
}

func (fs *FS) mutate(ctx context.Context, name string, rec []byte) error {
	if _, err := fs.liveState(ctx, name); err != nil {
		return err
	}
	id, err := fs.logFor(ctx, name, false)
	if err != nil {
		return err
	}
	return fs.appendUpdate(ctx, name, id, rec, false)
}

// Read returns the file's current contents (a copy).
func (fs *FS) Read(ctx context.Context, name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, err := fs.liveState(ctx, name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(st.data))
	copy(out, st.data)
	return out, nil
}

// ReadAsOf returns the file's contents as of the given timestamp — "the
// file server can extract, from the file history, either the current
// version of a file, or an earlier version" (§4.1). It works for deleted
// files too.
func (fs *FS) ReadAsOf(ctx context.Context, name string, asOf int64) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !validName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	st, _, err := fs.replay(ctx, name, asOf)
	if err != nil {
		return nil, err
	}
	if !st.exists {
		return nil, fmt.Errorf("%w: %q at %d", ErrNotExist, name, asOf)
	}
	out := make([]byte, len(st.data))
	copy(out, st.data)
	return out, nil
}

// Stat returns the file's current info.
func (fs *FS) Stat(ctx context.Context, name string) (Info, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, err := fs.liveState(ctx, name)
	if err != nil {
		return Info{}, err
	}
	_, n, err := fs.replay(ctx, name, 1<<62)
	if err != nil {
		return Info{}, err
	}
	return Info{Name: name, Size: len(st.data), Mode: st.mode, Versions: n}, nil
}

// List returns the live file names, sorted.
func (fs *FS) List(ctx context.Context) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names, err := fs.svc.List(ctx, fs.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, esc := range names {
		name := unescapeName(esc)
		st, err := fs.state(ctx, name)
		if err != nil {
			continue
		}
		if st.exists {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func unescapeName(esc string) string {
	r := strings.NewReplacer("%2F", "/", "%25", "%")
	return r.Replace(esc)
}

// EvictCache drops all cached file states, forcing replays — used by tests
// to prove the cache is pure (the history alone reconstructs every file).
func (fs *FS) EvictCache() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cache = make(map[string]*fileState)
}
