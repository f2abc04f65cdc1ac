package server

import "clio/internal/wire"

// scope says which part of a request payload names the tenant namespace the
// request touches; the tenant gate checks that part before the op runs.
type scope uint8

const (
	scopeNone   scope = iota
	scopePath         // a leading path string
	scopeID           // a leading log id, then the append tail (flag byte, data length)
	scopeIDList       // a counted list of log ids, then the append tail
)

// settles says what a tenant reservation taken by the gate is settled against
// once the op's outcome is known.
type settles uint8

const (
	settlesNothing settles = iota
	settlesLog             // one log slot, returned when the create failed
	settlesBytes           // the data length, returned on failure, counted as appended on success
)

// opInfo is everything the request path knows about an opcode apart from what
// executing it does (dispatchOp's switch). An opcode is declared here once;
// the metric label, the write-class test, the dedup bypass and the tenant
// gate are all lookups in opTable.
type opInfo struct {
	// name is the metric label and trace operation name; "" marks an
	// opcode nobody declared.
	name string
	// mutating ops change store state: followers refuse them and a cluster
	// leader acks them only after a quorum staged what their answer
	// promised (all of their effects, unless an unforced append's).
	mutating bool
	// unsequenced ops have no session side effects, so they bypass the
	// duplicate-suppression window (a replay simply re-executes) and may
	// answer with a body borrowed from the block cache. Cursor steps are NOT
	// unsequenced: they move the cursor, so a replay must hit the window.
	unsequenced bool
	// preAuth ops are answered on a multi-tenant server before the
	// connection has authenticated.
	preAuth bool
	scope   scope
	settles settles
}

var opTable = [256]opInfo{
	OpCreate:      {name: "create", mutating: true, scope: scopePath, settles: settlesLog},
	OpResolve:     {name: "resolve", unsequenced: true, scope: scopePath},
	OpList:        {name: "list", unsequenced: true, scope: scopePath},
	OpStat:        {name: "stat", unsequenced: true, scope: scopePath},
	OpSetPerms:    {name: "setperms", mutating: true, scope: scopePath},
	OpRetire:      {name: "retire", mutating: true, scope: scopePath},
	OpAppend:      {name: "append", mutating: true, scope: scopeID, settles: settlesBytes},
	OpCursorOpen:  {name: "cursor_open", scope: scopePath},
	OpNext:        {name: "next"},
	OpPrev:        {name: "prev"},
	OpSeekTime:    {name: "seek_time"},
	OpSeekStart:   {name: "seek_start"},
	OpSeekEnd:     {name: "seek_end"},
	OpCursorEnd:   {name: "cursor_end"},
	OpReadAt:      {name: "read_at", unsequenced: true}, // scoped after the fact, by the entry read (tenantEntry)
	OpPing:        {name: "ping", unsequenced: true, preAuth: true},
	OpStats:       {name: "stats", unsequenced: true},
	OpAppendMulti: {name: "append_multi", mutating: true, scope: scopeIDList, settles: settlesBytes},
	OpSeekPos:     {name: "seek_pos"},
	OpHello:       {name: "hello"},
	OpForce:       {name: "force", mutating: true},

	wire.OpReplHello:      {name: "repl_hello"},
	wire.OpReplWrite:      {name: "repl_write"},
	wire.OpReplInvalidate: {name: "repl_invalidate"},
	wire.OpReplTail:       {name: "repl_tail"},
	wire.OpReplTailClear:  {name: "repl_tail_clear"},
	wire.OpReplAck:        {name: "repl_ack"},
	wire.OpReplSessions:   {name: "repl_sessions"},
	wire.OpReplBase:       {name: "repl_base"},
	wire.OpReplReset:      {name: "repl_reset"},
	wire.OpPromote:        {name: "promote"},
	wire.OpReplStatus:     {name: "repl_status"},

	wire.OpSubscribe: {name: "subscribe", scope: scopePath},
}

func opName(op byte) string {
	if n := opTable[op].name; n != "" {
		return n
	}
	return "unknown"
}
