package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"strings"
	"testing"

	"clio/internal/wire"
)

// opConstants parses the Op* constants out of a source file: name → value.
func opConstants(t *testing.T, path string) map[string]byte {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]byte{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if !strings.HasPrefix(name.Name, "Op") || i >= len(spec.Values) {
				continue
			}
			lit, ok := spec.Values[i].(*ast.BasicLit)
			if !ok {
				t.Fatalf("%s: %s is not a literal", path, name.Name)
			}
			v, err := strconv.ParseUint(lit.Value, 0, 8)
			if err != nil {
				t.Fatalf("%s: %s = %s: %v", path, name.Name, lit.Value, err)
			}
			out[name.Name] = byte(v)
		}
		return true
	})
	return out
}

// TestOpTable: every opcode the protocol declares — the client ops here, the
// replication and stream extensions in internal/wire — has its row in opTable
// under a name of its own, and opTable has no row for anything else.
func TestOpTable(t *testing.T) {
	declared := map[byte]string{}
	for _, path := range []string{"proto.go", "../wire/repl.go", "../wire/stream.go"} {
		consts := opConstants(t, path)
		if len(consts) == 0 {
			t.Fatalf("%s: no Op* constants found", path)
		}
		for name, op := range consts {
			if other, dup := declared[op]; dup {
				t.Errorf("%s and %s share opcode %#x", name, other, op)
			}
			declared[op] = name
		}
	}
	names := map[string]byte{}
	for op := 0; op < len(opTable); op++ {
		row, constant := opTable[op], declared[byte(op)]
		switch {
		case constant == "" && row != (opInfo{}):
			t.Errorf("opTable[%#x] (%q) is no declared opcode", op, row.name)
		case constant != "" && row.name == "":
			t.Errorf("%s (%#x) has no row in opTable", constant, op)
		case constant != "":
			if other, dup := names[row.name]; dup {
				t.Errorf("%s and opcode %#x share the name %q", constant, other, row.name)
			}
			names[row.name] = byte(op)
			if opName(byte(op)) != row.name {
				t.Errorf("%s: opName disagrees with the table", constant)
			}
		}
	}
	if opName(200) != "unknown" || opTable[200].mutating {
		t.Error("an undeclared opcode must be named unknown and not mutating")
	}
	// What a reservation settles against follows from what the gate scopes.
	for op, row := range opTable {
		wantSettles := map[scope]settles{scopeID: settlesBytes, scopeIDList: settlesBytes}[row.scope]
		if row.scope == scopePath && row.settles == settlesLog {
			wantSettles = settlesLog
		}
		if row.settles != wantSettles {
			t.Errorf("opTable[%#x] (%s): scope %d settles %d", op, row.name, row.scope, row.settles)
		}
		if row.unsequenced && row.mutating {
			t.Errorf("opTable[%#x] (%s): a mutating op must go through the dedup window", op, row.name)
		}
	}
}

// TestCursorHandleRange: a cursor handle is a uint32 on the wire as a uvarint.
// A wider value used to be cast down, so 2³²+h stepped — and OpCursorEnd
// closed — cursor h; now it names no cursor.
func TestCursorHandleRange(t *testing.T) {
	_, conn := testServer(t)
	id := newReader(mustOK(t, conn, OpCreate, createPayload("/l"))).Uvarint()
	mustOK(t, conn, OpAppend, appendPayload(id, "only"))
	h, err := NewDecoder(mustOK(t, conn, OpCursorOpen, PutString(nil, "/l"))).Uint32()
	if err != nil {
		t.Fatal(err)
	}
	alias := wire.PutUvarint(nil, uint64(h)+math.MaxUint32+1)
	for _, op := range []byte{OpNext, OpPrev, OpSeekStart, OpSeekEnd, OpCursorEnd} {
		status, resp := roundTrip(t, conn, op, alias)
		if msg, _ := NewDecoder(resp).String(); status != StatusErr || !strings.Contains(msg, "unknown cursor handle") {
			t.Errorf("%s on handle 2^32+%d: status %d, %q", opName(op), h, status, msg)
		}
	}
	// Neither stepped nor closed: the cursor still stands before its entry.
	if got := decodeEntryData(t, mustOK(t, conn, OpNext, wire.PutUvarint(nil, uint64(h)))); got != "only" {
		t.Fatalf("cursor %d after the aliased requests: Next = %q", h, got)
	}
	// Closing an in-range handle stays idempotent.
	for i := 0; i < 2; i++ {
		mustOK(t, conn, OpCursorEnd, wire.PutUvarint(nil, uint64(h)))
	}
}
