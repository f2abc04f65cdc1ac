package catalog

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"clio/internal/entrymap"
)

func TestReservedIDsMatchEntrymap(t *testing.T) {
	if VolumeSeqID != entrymap.VolumeSeqID || EntrymapID != entrymap.EntrymapID ||
		CatalogID != entrymap.CatalogID || BadBlockID != entrymap.BadBlockID ||
		FirstClientID != entrymap.FirstClientID || CheckpointID != entrymap.CheckpointID ||
		CompactID != entrymap.CompactID {
		t.Error("reserved id constants diverge from internal/entrymap")
	}
}

func TestNewTableSystemFiles(t *testing.T) {
	tab := NewTable()
	if len(tab.byID) != 6 {
		t.Fatalf("Len = %d", len(tab.byID))
	}
	for _, id := range []uint16{VolumeSeqID, EntrymapID, CatalogID, BadBlockID, CheckpointID, CompactID} {
		d, err := tab.Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if !d.System {
			t.Errorf("id %d not marked system", id)
		}
	}
	names, err := tab.List(VolumeSeqID)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{".badblocks", ".catalog", ".checkpoint", ".compact", ".entrymap"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("List(/) = %v", names)
	}
}

func TestCreateResolvePath(t *testing.T) {
	tab := NewTable()
	mail, _, err := tab.Create(VolumeSeqID, "mail", 0o644, "root", 100)
	if err != nil {
		t.Fatal(err)
	}
	smith, _, err := tab.Create(mail.ID, "smith", 0o600, "smith", 200)
	if err != nil {
		t.Fatal(err)
	}
	if mail.ID < FirstClientID || smith.ID == mail.ID {
		t.Errorf("ids: mail=%d smith=%d", mail.ID, smith.ID)
	}
	id, err := tab.Resolve("/mail/smith")
	if err != nil || id != smith.ID {
		t.Errorf("Resolve = %d, %v", id, err)
	}
	if id, err := tab.Resolve("/mail"); err != nil || id != mail.ID {
		t.Errorf("Resolve /mail = %d, %v", id, err)
	}
	if id, err := tab.Resolve("/"); err != nil || id != VolumeSeqID {
		t.Errorf("Resolve / = %d, %v", id, err)
	}
	p, err := tab.PathOf(smith.ID)
	if err != nil || p != "/mail/smith" {
		t.Errorf("PathOf = %q, %v", p, err)
	}
	if _, err := tab.Resolve("/mail/jones"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing path: %v", err)
	}
	if _, err := tab.Resolve("relative"); !errors.Is(err, ErrBadName) {
		t.Errorf("relative path: %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	tab := NewTable()
	if _, _, err := tab.Create(999, "x", 0, "", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown parent: %v", err)
	}
	if _, _, err := tab.Create(VolumeSeqID, "a/b", 0, "", 0); !errors.Is(err, ErrBadName) {
		t.Errorf("slash in name: %v", err)
	}
	if _, _, err := tab.Create(VolumeSeqID, "", 0, "", 0); !errors.Is(err, ErrBadName) {
		t.Errorf("empty name: %v", err)
	}
	if _, _, err := tab.Create(CatalogID, "x", 0, "", 0); !errors.Is(err, ErrReserved) {
		t.Errorf("create under system log: %v", err)
	}
	if _, _, err := tab.Create(VolumeSeqID, "dup", 0, "", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Create(VolumeSeqID, "dup", 0, "", 0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestDescendants(t *testing.T) {
	tab := NewTable()
	mail, _, _ := tab.Create(VolumeSeqID, "mail", 0, "", 0)
	a, _, _ := tab.Create(mail.ID, "a", 0, "", 0)
	b, _, _ := tab.Create(mail.ID, "b", 0, "", 0)
	deep, _, _ := tab.Create(a.ID, "deep", 0, "", 0)
	got, err := tab.Descendants(mail.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint16{mail.ID, a.ID, b.ID, deep.ID}
	sortU16(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Descendants = %v, want %v", got, want)
	}
	leaf, err := tab.Descendants(b.ID)
	if err != nil || !reflect.DeepEqual(leaf, []uint16{b.ID}) {
		t.Errorf("leaf Descendants = %v, %v", leaf, err)
	}
}

func sortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestAttrChangesAndRetire(t *testing.T) {
	tab := NewTable()
	d, _, _ := tab.Create(VolumeSeqID, "audit", 0o600, "root", 1)
	if _, err := tab.SetPerms(d.ID, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.Get(d.ID); got.Perms != 0o644 {
		t.Errorf("perms = %o", got.Perms)
	}
	// No operation writes an ownership change; one in the log replays.
	if err := tab.Apply(&Record{Kind: kindSetOwn, ID: d.ID, Owner: "ops"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.Get(d.ID); got.Owner != "ops" {
		t.Errorf("owner = %q", got.Owner)
	}
	if _, err := tab.Retire(d.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.Get(d.ID); !got.Retired {
		t.Error("not retired")
	}
	if _, err := tab.SetPerms(d.ID, 0); !errors.Is(err, ErrRetired) {
		t.Errorf("mutate retired: %v", err)
	}
	if _, _, err := tab.Create(d.ID, "x", 0, "", 0); !errors.Is(err, ErrRetired) {
		t.Errorf("create under retired: %v", err)
	}
	if _, err := tab.Retire(EntrymapID); !errors.Is(err, ErrReserved) {
		t.Errorf("retire system: %v", err)
	}
}

func TestReplayRebuildsTable(t *testing.T) {
	tab := NewTable()
	var recs []*Record
	mail, r, _ := tab.Create(VolumeSeqID, "mail", 0o644, "root", 10)
	recs = append(recs, r)
	smith, r, _ := tab.Create(mail.ID, "smith", 0o600, "smith", 20)
	recs = append(recs, r)
	r, _ = tab.SetPerms(smith.ID, 0o640)
	recs = append(recs, r)
	r, _ = tab.Retire(mail.ID)
	recs = append(recs, r)

	// Round-trip each record through its wire form, then replay.
	rebuilt := NewTable()
	for _, rec := range recs {
		dec, err := DecodeRecord(rec.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, rec) {
			t.Fatalf("record round trip: got %+v want %+v", dec, rec)
		}
		if err := rebuilt.Apply(dec); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rebuilt.IDs(), tab.IDs()) {
		t.Fatalf("ids: %v vs %v", rebuilt.IDs(), tab.IDs())
	}
	for _, id := range tab.IDs() {
		a, _ := tab.Get(id)
		b, _ := rebuilt.Get(id)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("descriptor %d: %+v vs %+v", id, a, b)
		}
	}
	// Replay must continue id allocation past the replayed ids.
	d, _, err := rebuilt.Create(VolumeSeqID, "fresh", 0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID <= smith.ID {
		t.Errorf("post-replay id %d not past %d", d.ID, smith.ID)
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{9, 1},          // unknown kind
		{kindCreate, 1}, // truncated
		{kindSetPerm},
	}
	for i, b := range bad {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestIDExhaustion(t *testing.T) {
	tab := NewTable()
	count := 0
	for {
		_, _, err := tab.Create(VolumeSeqID, nameFor(count), 0, "", 0)
		if err != nil {
			if !errors.Is(err, ErrIDsExhausted) {
				t.Fatalf("unexpected error at %d: %v", count, err)
			}
			break
		}
		count++
	}
	// 4096 ids minus the 4 low reserved ids and the checkpoint and compact
	// ids at the top of the space.
	if count != MaxLogID-FirstClientID-1 {
		t.Errorf("created %d log files before exhaustion, want %d", count, MaxLogID-FirstClientID-1)
	}
}

func nameFor(i int) string {
	const digits = "abcdefghij"
	out := []byte{'f'}
	for ; i > 0; i /= 10 {
		out = append(out, digits[i%10])
	}
	return string(out)
}

func TestValidNameProperty(t *testing.T) {
	f := func(s string) bool {
		ok := ValidName(s)
		manual := s != "" && len(s) <= 255 && s != "." && s != ".."
		for _, c := range []byte(s) {
			if c == '/' || c == 0 {
				manual = false
			}
		}
		return ok == manual
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathRoundTripProperty(t *testing.T) {
	tab := NewTable()
	parents := []uint16{VolumeSeqID}
	for i := 0; i < 50; i++ {
		parent := parents[i%len(parents)]
		d, _, err := tab.Create(parent, nameFor(i+1), 0, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		parents = append(parents, d.ID)
	}
	for _, id := range tab.IDs() {
		p, err := tab.PathOf(id)
		if err != nil {
			t.Fatal(err)
		}
		back, err := tab.Resolve(p)
		if err != nil || back != id {
			t.Errorf("Resolve(PathOf(%d)=%q) = %d, %v", id, p, back, err)
		}
	}
}

func TestSnapshotRecords(t *testing.T) {
	tab := NewTable()
	mail, _, _ := tab.Create(VolumeSeqID, "mail", 0o644, "root", 10)
	smith, _, _ := tab.Create(mail.ID, "smith", 0o600, "smith", 20)
	dead, _, _ := tab.Create(VolumeSeqID, "dead", 0, "", 30)
	if _, err := tab.Retire(dead.ID); err != nil {
		t.Fatal(err)
	}
	recs := tab.SnapshotRecords()
	// Replaying the snapshot alone reconstructs the client namespace.
	fresh := NewTable()
	for _, r := range recs {
		dec, err := DecodeRecord(r.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Apply(dec); err != nil {
			t.Fatalf("snapshot replay: %v", err)
		}
	}
	if got, err := fresh.Resolve("/mail/smith"); err != nil || got != smith.ID {
		t.Errorf("resolve after snapshot: %d, %v", got, err)
	}
	d, err := fresh.Get(dead.ID)
	if err != nil || !d.Retired {
		t.Errorf("retired state lost: %+v, %v", d, err)
	}
	// Snapshot replay over the ORIGINAL table (all volumes mounted) is a
	// no-op, not an error.
	for _, r := range recs {
		if err := tab.Apply(r); err != nil {
			t.Fatalf("idempotent replay: %v", err)
		}
	}
	// A conflicting create with the same id is still rejected.
	bad := &Record{Kind: 1, ID: mail.ID, Parent: VolumeSeqID, Name: "other"}
	if err := fresh.Apply(bad); err == nil {
		t.Error("conflicting duplicate create accepted")
	}
}

func TestSnapshotParentOrder(t *testing.T) {
	// Children created before their parents' ids (id wrap scenarios) must
	// still snapshot parent-first.
	tab := NewTable()
	a, _, _ := tab.Create(VolumeSeqID, "a", 0, "", 1)
	b, _, _ := tab.Create(a.ID, "b", 0, "", 2)
	_, _, _ = tab.Create(b.ID, "c", 0, "", 3)
	recs := tab.SnapshotRecords()
	seen := map[uint16]bool{VolumeSeqID: true}
	for _, r := range recs {
		if r.Kind == 1 {
			if !seen[r.Parent] {
				t.Fatalf("child %d snapshot before parent %d", r.ID, r.Parent)
			}
			seen[r.ID] = true
		}
	}
}
