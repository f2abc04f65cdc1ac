package logapi_test

import (
	"testing"

	"clio"
	"clio/internal/client"
	"clio/internal/logapi"
	"clio/internal/shard"
)

// Compile-time pinning of the unified Log API: every deployment shape —
// an in-process store of one or more shards (and its facade alias), a
// network client — satisfies logapi.Service, and the facade's Log alias
// is that same interface. A signature drift in any implementation breaks
// this file's build rather than a caller's.
var (
	_ logapi.Service = (*shard.Store)(nil)
	_ logapi.Service = (*client.Client)(nil)
	_ clio.Log       = (*clio.Store)(nil)
	_ clio.Log       = (*client.Client)(nil)

	_ logapi.Cursor  = (*client.Cursor)(nil)
	_ clio.LogCursor = logapi.Cursor(nil)
)

// TestInterfaceSatisfaction exists so the assertions above are exercised
// by `go test` even when nothing else in this file changes; the real
// check happens at compile time.
func TestInterfaceSatisfaction(t *testing.T) {
	var lg clio.Log
	if lg != nil {
		t.Fatal("zero Log must be nil")
	}
}
