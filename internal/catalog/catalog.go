// Package catalog implements the catalog log file of §2.2: the log of
// log-file-specific attributes. Per-entry headers carry only a 12-bit local
// log-file id; everything that is an attribute of a log file as a whole —
// its name, access permissions, creation time, its place in the sublog
// hierarchy — is recorded separately in the catalog log file, and every
// change to those attributes is itself logged there.
//
// Access permissions and ownership are recorded and replayed faithfully
// (every change is logged, §2.2) but, as in the paper, enforcement is the
// surrounding system's concern — this package stores attributes, it does
// not authenticate callers.
//
// Replaying the catalog log yields the in-memory Table (the paper's
// "catalog ... of log file specific information (i.e. file descriptors)
// maintained by the server, and derived from the catalog log file"). The
// sublog relationship doubles as the naming hierarchy: "/mail/smith" names
// both a log file and a directory of sublogs (§2.1).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"clio/internal/wire"
)

// Reserved ids, mirroring internal/entrymap's constants (kept in sync by a
// test) without importing it.
const (
	VolumeSeqID   = 0
	EntrymapID    = 1
	CatalogID     = 2
	BadBlockID    = 3
	FirstClientID = 4
	// CheckpointID holds recovery checkpoint records; it sits at the top
	// of the id space so the client range stays contiguous from
	// FirstClientID.
	CheckpointID = wire.MaxLogID
	// CompactID holds compaction commit records, just below CheckpointID.
	CompactID = wire.MaxLogID - 1
)

// MaxLogID is the top of the 12-bit id space.
const MaxLogID = wire.MaxLogID

// Errors.
var (
	// ErrNotFound indicates an unknown log file id or path.
	ErrNotFound = errors.New("catalog: log file not found")
	// ErrExists indicates a name collision under the same parent.
	ErrExists = errors.New("catalog: log file already exists")
	// ErrBadName indicates an invalid log file name component.
	ErrBadName = errors.New("catalog: invalid name")
	// ErrIDsExhausted indicates the 12-bit id space is exhausted.
	ErrIDsExhausted = errors.New("catalog: log-file id space exhausted")
	// ErrBadRecord indicates an undecodable catalog record.
	ErrBadRecord = errors.New("catalog: malformed record")
	// ErrRetired indicates an operation on a retired log file.
	ErrRetired = errors.New("catalog: log file retired")
	// ErrReserved indicates an operation on a reserved system log file.
	ErrReserved = errors.New("catalog: reserved log file")
)

// Record kinds.
const (
	kindCreate  = 1
	kindSetPerm = 2
	kindRetire  = 3
	kindSetOwn  = 4
)

// Record is one catalog log entry: a create or an attribute change.
type Record struct {
	Kind    uint8
	ID      uint16
	Parent  uint16 // kindCreate
	Perms   uint16 // kindCreate, kindSetPerm
	Created int64  // kindCreate (Unix nanoseconds)
	Name    string // kindCreate
	Owner   string // kindCreate, kindSetOwn
}

// Encode appends the record's wire form to dst.
func (r *Record) Encode(dst []byte) []byte {
	dst = append(dst, r.Kind)
	dst = wire.PutUvarint(dst, uint64(r.ID))
	switch r.Kind {
	case kindCreate:
		dst = wire.PutUvarint(dst, uint64(r.Parent))
		dst = wire.PutUvarint(dst, uint64(r.Perms))
		dst = wire.PutUint64(dst, uint64(r.Created))
		dst = wire.PutUvarint(dst, uint64(len(r.Name)))
		dst = append(dst, r.Name...)
		dst = wire.PutUvarint(dst, uint64(len(r.Owner)))
		dst = append(dst, r.Owner...)
	case kindSetPerm:
		dst = wire.PutUvarint(dst, uint64(r.Perms))
	case kindRetire:
		// id only
	case kindSetOwn:
		dst = wire.PutUvarint(dst, uint64(len(r.Owner)))
		dst = append(dst, r.Owner...)
	}
	return dst
}

// DecodeRecord parses one catalog record.
func DecodeRecord(data []byte) (*Record, error) {
	r := wire.NewReader(data, ErrBadRecord)
	rec := &Record{Kind: r.Byte(), ID: uint16(r.Bounded(MaxLogID, "id range"))}
	switch rec.Kind {
	case kindCreate:
		rec.Parent = uint16(r.Bounded(MaxLogID, "parent range"))
		rec.Perms = uint16(r.Bounded(0xFFFF, "perms range"))
		rec.Created = r.Int64()
		rec.Name, rec.Owner = readName(r), readName(r)
	case kindSetPerm:
		rec.Perms = uint16(r.Bounded(0xFFFF, "perms range"))
	case kindRetire:
	case kindSetOwn:
		rec.Owner = readName(r)
	default:
		r.Fail("kind")
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return rec, nil
}

// readName consumes a length-prefixed name of at most 4096 bytes.
func readName(r *wire.Reader) string {
	s := r.String()
	if len(s) > 4096 {
		r.Fail("name length")
	}
	return s
}

// Descriptor is the in-memory state of one log file.
type Descriptor struct {
	ID      uint16
	Parent  uint16
	Name    string // final path component; "/" for the volume sequence log
	Perms   uint16
	Created int64
	Owner   string
	Retired bool
	// System marks the reserved service log files.
	System bool
}

// Table is the server's catalog: id → descriptor plus the name tree. It is
// safe for concurrent use: lookups (Resolve, Get, List, ...) run from the
// server's lock-free read path, so the table synchronizes internally with a
// reader/writer lock. Mutations are additionally serialized by the owning
// service, which must durably log the returned records in order.
type Table struct {
	mu       sync.RWMutex
	byID     map[uint16]*Descriptor
	children map[uint16]map[string]uint16
	nextID   uint16
	// gen counts the log files created (live or replayed): a reader holding
	// an id set derived from the tree (Descendants) rebuilds it when the
	// count has moved.
	gen atomic.Uint64
}

// NewTable returns a catalog pre-populated with the reserved system log
// files: "/" (the volume sequence log), "/.entrymap", "/.catalog",
// "/.badblocks", "/.checkpoint" and "/.compact".
func NewTable() *Table {
	t := &Table{
		byID:     make(map[uint16]*Descriptor),
		children: make(map[uint16]map[string]uint16),
		nextID:   FirstClientID,
	}
	sys := []struct {
		id   uint16
		name string
	}{
		{VolumeSeqID, "/"},
		{EntrymapID, ".entrymap"},
		{CatalogID, ".catalog"},
		{BadBlockID, ".badblocks"},
		{CheckpointID, ".checkpoint"},
		{CompactID, ".compact"},
	}
	for _, s := range sys {
		d := &Descriptor{ID: s.id, Parent: VolumeSeqID, Name: s.name, System: true}
		t.byID[s.id] = d
		if s.id != VolumeSeqID {
			t.child(VolumeSeqID)[s.name] = s.id
		}
	}
	return t
}

func (t *Table) child(parent uint16) map[string]uint16 {
	m, ok := t.children[parent]
	if !ok {
		m = make(map[string]uint16)
		t.children[parent] = m
	}
	return m
}

// kids is the read-only counterpart of child: it never materializes a map,
// so it is safe under the read lock (a nil map reads as empty).
func (t *Table) kids(parent uint16) map[string]uint16 {
	return t.children[parent]
}

// Get returns a copy of the descriptor for id (a copy so readers never see
// a concurrent permission/retire change mid-struct).
func (t *Table) Get(id uint16) (*Descriptor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	cp := *d
	return &cp, nil
}

// Flags returns the descriptor's system and retired marks without copying
// it: what the append path checks of every entry's member log files.
func (t *Table) Flags(id uint16) (system, retired bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.byID[id]
	if !ok {
		return false, false, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return d.System, d.Retired, nil
}

// Len returns the number of log files known, including the system ones.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.byID)
}

// ValidName reports whether name is a legal path component.
func ValidName(name string) bool {
	if name == "" || len(name) > 255 || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, "/\x00")
}

// Create allocates an id and returns both the descriptor and the catalog
// record that must be appended to the catalog log file. The parent makes the
// new log file a sublog: every entry logged in it also belongs to the parent
// (§2.1). Creating under the volume sequence log (parent 0) makes a
// top-level log file.
func (t *Table) Create(parent uint16, name string, perms uint16, owner string, created int64) (*Descriptor, *Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pd, ok := t.byID[parent]
	if !ok {
		return nil, nil, fmt.Errorf("%w: parent id %d", ErrNotFound, parent)
	}
	if pd.Retired {
		return nil, nil, fmt.Errorf("%w: parent %q", ErrRetired, pd.Name)
	}
	if pd.System && parent != VolumeSeqID {
		return nil, nil, fmt.Errorf("%w: cannot create under %q", ErrReserved, pd.Name)
	}
	if !ValidName(name) {
		return nil, nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if _, exists := t.kids(parent)[name]; exists {
		return nil, nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	id, err := t.allocID()
	if err != nil {
		return nil, nil, err
	}
	rec := &Record{
		Kind:    kindCreate,
		ID:      id,
		Parent:  parent,
		Perms:   perms,
		Created: created,
		Name:    name,
		Owner:   owner,
	}
	if err := t.applyLocked(rec); err != nil {
		return nil, nil, err
	}
	cp := *t.byID[id]
	return &cp, rec, nil
}

func (t *Table) allocID() (uint16, error) {
	for probe := 0; probe <= MaxLogID; probe++ {
		id := t.nextID
		t.nextID++
		if t.nextID > MaxLogID {
			t.nextID = FirstClientID
		}
		if id < FirstClientID {
			continue
		}
		if _, taken := t.byID[id]; !taken {
			return id, nil
		}
	}
	return 0, ErrIDsExhausted
}

// SetPerms returns the record for a permission change and applies it.
func (t *Table) SetPerms(id uint16, perms uint16) (*Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.mutable(id); err != nil {
		return nil, err
	}
	rec := &Record{Kind: kindSetPerm, ID: id, Perms: perms}
	if err := t.applyLocked(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// Retire marks a log file closed for further appends. Its entries remain
// readable forever — nothing is ever deleted from a log volume — and its id
// is never reused within the volume sequence ("distinct from that of all
// other log files ever created on the same volume sequence", §2.1).
func (t *Table) Retire(id uint16) (*Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.mutable(id); err != nil {
		return nil, err
	}
	rec := &Record{Kind: kindRetire, ID: id}
	if err := t.applyLocked(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

func (t *Table) mutable(id uint16) (*Descriptor, error) {
	d, ok := t.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if d.System {
		return nil, fmt.Errorf("%w: %q", ErrReserved, d.Name)
	}
	if d.Retired {
		return nil, fmt.Errorf("%w: %q", ErrRetired, d.Name)
	}
	return d, nil
}

// Apply replays one catalog record into the table (used both on the live
// path and when rebuilding from the catalog log at recovery, §2.3.1).
func (t *Table) Apply(rec *Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyLocked(rec)
}

func (t *Table) applyLocked(rec *Record) error {
	switch rec.Kind {
	case kindCreate:
		if rec.ID < FirstClientID || rec.ID > MaxLogID {
			return fmt.Errorf("%w: create with reserved id %d", ErrBadRecord, rec.ID)
		}
		if have, dup := t.byID[rec.ID]; dup {
			// Snapshot records re-create known log files at volume
			// transitions; an identical create is an idempotent no-op.
			if have.Parent == rec.Parent && have.Name == rec.Name {
				return nil
			}
			return fmt.Errorf("%w: duplicate create of id %d", ErrBadRecord, rec.ID)
		}
		if _, ok := t.byID[rec.Parent]; !ok {
			return fmt.Errorf("%w: create under unknown parent %d", ErrBadRecord, rec.Parent)
		}
		if !ValidName(rec.Name) {
			return fmt.Errorf("%w: create with bad name %q", ErrBadRecord, rec.Name)
		}
		if _, exists := t.child(rec.Parent)[rec.Name]; exists {
			return fmt.Errorf("%w: create duplicate name %q", ErrBadRecord, rec.Name)
		}
		t.byID[rec.ID] = &Descriptor{
			ID:      rec.ID,
			Parent:  rec.Parent,
			Name:    rec.Name,
			Perms:   rec.Perms,
			Created: rec.Created,
			Owner:   rec.Owner,
		}
		t.child(rec.Parent)[rec.Name] = rec.ID
		t.gen.Add(1)
		if rec.ID >= t.nextID {
			t.nextID = rec.ID + 1
			if t.nextID > MaxLogID {
				t.nextID = FirstClientID
			}
		}
	case kindSetPerm:
		d, ok := t.byID[rec.ID]
		if !ok {
			return fmt.Errorf("%w: setperm on unknown id %d", ErrBadRecord, rec.ID)
		}
		d.Perms = rec.Perms
	case kindSetOwn:
		d, ok := t.byID[rec.ID]
		if !ok {
			return fmt.Errorf("%w: setowner on unknown id %d", ErrBadRecord, rec.ID)
		}
		d.Owner = rec.Owner
	case kindRetire:
		d, ok := t.byID[rec.ID]
		if !ok {
			return fmt.Errorf("%w: retire of unknown id %d", ErrBadRecord, rec.ID)
		}
		d.Retired = true
	default:
		return fmt.Errorf("%w: kind %d", ErrBadRecord, rec.Kind)
	}
	return nil
}

// Resolve walks a slash-separated path to a log file id. "/" resolves to the
// volume sequence log.
func (t *Table) Resolve(path string) (uint16, error) {
	if path == "" || path[0] != '/' {
		return 0, fmt.Errorf("%w: path %q must be absolute", ErrBadName, path)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	cur := uint16(VolumeSeqID)
	for _, comp := range strings.Split(path, "/") {
		if comp == "" {
			continue
		}
		next, ok := t.kids(cur)[comp]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrNotFound, path)
		}
		cur = next
	}
	return cur, nil
}

// PathOf returns the absolute path of id.
func (t *Table) PathOf(id uint16) (string, error) {
	if id == VolumeSeqID {
		return "/", nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var parts []string
	for cur := id; cur != VolumeSeqID; {
		d, ok := t.byID[cur]
		if !ok {
			return "", fmt.Errorf("%w: id %d", ErrNotFound, cur)
		}
		parts = append(parts, d.Name)
		cur = d.Parent
	}
	var sb strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		sb.WriteByte('/')
		sb.WriteString(parts[i])
	}
	return sb.String(), nil
}

// List returns the child names of id, sorted. Every log file is also a
// directory of (zero or more) sublogs (§2.1).
func (t *Table) List(id uint16) ([]string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, ok := t.byID[id]; !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	m := t.kids(id)
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Generation returns a count every create moves: a set Descendants returned
// after Generation returned g is current while Generation still returns g.
func (t *Table) Generation() uint64 { return t.gen.Load() }

// Descendants returns id and every transitive sublog id beneath it, sorted.
// Reading a log file yields the entries of the whole set: an entry logged in
// a sublog also belongs to its ancestors.
func (t *Table) Descendants(id uint16) ([]uint16, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, ok := t.byID[id]; !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	var out []uint16
	var walk func(uint16)
	walk = func(cur uint16) {
		out = append(out, cur)
		kids := make([]uint16, 0, len(t.kids(cur)))
		for _, kid := range t.kids(cur) {
			kids = append(kids, kid)
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		for _, kid := range kids {
			walk(kid)
		}
	}
	walk(id)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// SnapshotRecords returns the records that reconstruct every client log
// file's current descriptor — the catalog snapshot written at the start of
// each successor volume so that the newest volume alone suffices to rebuild
// the catalog when earlier volumes are offline (§2.1: only the newest
// volume of a sequence is assumed on-line).
func (t *Table) SnapshotRecords() []*Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*Record
	// Parents must precede children; emit in id order after a topological
	// pass (parents always have smaller create times but not necessarily
	// smaller ids, so walk the tree).
	emitted := make(map[uint16]bool)
	var emit func(id uint16)
	emit = func(id uint16) {
		if emitted[id] || id < FirstClientID {
			return
		}
		d := t.byID[id]
		if d == nil || d.System {
			return
		}
		emit(d.Parent)
		emitted[id] = true
		out = append(out, &Record{
			Kind:    kindCreate,
			ID:      d.ID,
			Parent:  d.Parent,
			Perms:   d.Perms,
			Created: d.Created,
			Name:    d.Name,
			Owner:   d.Owner,
		})
		if d.Retired {
			out = append(out, &Record{Kind: kindRetire, ID: d.ID})
		}
	}
	for _, id := range t.idsLocked() {
		emit(id)
	}
	return out
}

// IDs returns every known id, sorted (for iteration in tests and tools).
func (t *Table) IDs() []uint16 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.idsLocked()
}

func (t *Table) idsLocked() []uint16 {
	out := make([]uint16, 0, len(t.byID))
	for id := range t.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
