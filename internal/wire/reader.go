package wire

import "fmt"

// payloadReader consumes a replication or stream payload front to back with
// explicit bounds checks; every failure wraps the family's sentinel
// (ErrReplPayload or ErrStreamPayload), and no input can make it panic or
// allocate more than the payload's own length.
type payloadReader struct {
	buf      []byte
	sentinel error
}

func (r *payloadReader) fail(what string) error {
	return fmt.Errorf("%w: %s", r.sentinel, what)
}

func (r *payloadReader) uvarint(what string) (uint64, error) {
	v, n, err := Uvarint(r.buf)
	if err != nil {
		return 0, r.fail(what)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *payloadReader) u64(what string) (uint64, error) {
	v, err := Uint64(r.buf)
	if err != nil {
		return 0, r.fail(what)
	}
	r.buf = r.buf[8:]
	return v, nil
}

func (r *payloadReader) u32(what string) (uint32, error) {
	v, err := Uint32(r.buf)
	if err != nil {
		return 0, r.fail(what)
	}
	r.buf = r.buf[4:]
	return v, nil
}

func (r *payloadReader) u16(what string) (uint16, error) {
	v, err := Uint16(r.buf)
	if err != nil {
		return 0, r.fail(what)
	}
	r.buf = r.buf[2:]
	return v, nil
}

func (r *payloadReader) byte(what string) (byte, error) {
	if len(r.buf) < 1 {
		return 0, r.fail(what)
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

func (r *payloadReader) bytes(what string) ([]byte, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)) {
		return nil, r.fail(what + " body")
	}
	out := make([]byte, n)
	copy(out, r.buf[:n])
	r.buf = r.buf[n:]
	return out, nil
}

func (r *payloadReader) str(what string) (string, error) {
	b, err := r.bytes(what)
	return string(b), err
}
