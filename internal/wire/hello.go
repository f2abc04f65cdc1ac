package wire

// Hello is the OpHello payload: the session handshake that attaches a
// connection to a client session and, on a multi-tenant server, presents the
// tenant's credentials.
//
// Wire form: u64 session id, optionally followed by a length-prefixed tenant
// name and a length-prefixed shared-secret token. The bare eight-byte form
// is exactly the pre-tenancy payload, so old clients keep working against a
// server running in open (tenant-less) mode, and the decoder accepts both.
type Hello struct {
	// Session is the client-chosen session id (0 = connection-private
	// session, no duplicate suppression across reconnects).
	Session uint64
	// Tenant names the tenant the session authenticates as; "" on a server
	// without tenants configured.
	Tenant string
	// Token is the tenant's shared secret, checked against the server's
	// config. Compared constant-time server-side.
	Token string
}

// Encode appends the handshake's wire form. The tenant fields are emitted
// only when a tenant is named, keeping the tenant-less payload byte-identical
// to the legacy eight-byte form.
func (h Hello) Encode(b []byte) []byte {
	b = PutUint64(b, h.Session)
	if h.Tenant == "" && h.Token == "" {
		return b
	}
	b = putBytes(b, []byte(h.Tenant))
	return putBytes(b, []byte(h.Token))
}

// DecodeHello parses an OpHello payload, legacy or tenant-extended.
func DecodeHello(payload []byte) (Hello, error) {
	r := NewReader(payload, ErrStreamPayload)
	h := Hello{Session: r.Uint64()}
	if r.Len() > 0 {
		h.Tenant, h.Token = r.String(), r.String()
	}
	return h, r.Err()
}
