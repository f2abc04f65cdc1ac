// Package mailstore is the history-based electronic mail system of §4.2:
// each mailbox is a log file of delivered messages, the mail agent keeps
// pointers into this "mail history" and caches message copies for
// efficiency, and messages are permanently accessible — the agent's flags
// (read, hidden) are themselves logged, so nothing is ever destroyed and
// the storage of messages "is decoupled from the mail system's directory
// management and query facilities, which can evolve over time without
// rendering old mail inaccessible".
//
// Layout under the root log directory (default "/mail"):
//
//	/mail/<user>         delivered messages (one entry per message)
//	/mail/<user>/.flags  the agent's flag history (read/hide marks)
package mailstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"clio/internal/logapi"
	"clio/internal/wire"
)

// Errors.
var (
	// ErrNoMailbox indicates an unknown user.
	ErrNoMailbox = errors.New("mailstore: no such mailbox")
	// ErrNoMessage indicates an unknown message id.
	ErrNoMessage = errors.New("mailstore: no such message")
	// ErrBadMessage indicates an undecodable message entry.
	ErrBadMessage = errors.New("mailstore: malformed message")
)

// Message is one piece of mail.
type Message struct {
	From    string
	Subject string
	Body    string
	// Delivered is the log timestamp assigned at delivery; it doubles as
	// the message id within a mailbox (timestamps are unique, §2.1).
	Delivered int64
	Read      bool
	Hidden    bool
}

// encode serializes the client-visible fields.
func (m *Message) encode() []byte {
	out := wire.PutUvarint(nil, uint64(len(m.From)))
	out = append(out, m.From...)
	out = wire.PutUvarint(out, uint64(len(m.Subject)))
	out = append(out, m.Subject...)
	out = wire.PutUvarint(out, uint64(len(m.Body)))
	out = append(out, m.Body...)
	return out
}

func decodeMessage(b []byte) (*Message, error) {
	m := &Message{}
	for _, dst := range []*string{&m.From, &m.Subject, &m.Body} {
		l, n, err := wire.Uvarint(b)
		if err != nil || uint64(len(b)) < uint64(n)+l {
			return nil, ErrBadMessage
		}
		b = b[n:]
		*dst = string(b[:l])
		b = b[l:]
	}
	return m, nil
}

// flag records in the .flags sublog: kind byte + message timestamp.
const (
	flagRead = 1
	flagHide = 2
)

// Store is a history-based mail store over a log service — in-process,
// sharded or remote (any logapi.Service).
type Store struct {
	mu   sync.Mutex
	svc  logapi.Service
	root string
	// box caches per-user state: the agent's "pointers into the mail
	// history" plus cached message copies.
	box map[string]*mailbox
}

type mailbox struct {
	user   string
	msgID  logapi.ID
	flagID logapi.ID
	msgs   []*Message // cached copies in delivery order
}

// New returns a mail store rooted at the given log directory (created if
// needed, e.g. "/mail").
func New(ctx context.Context, svc logapi.Service, root string) (*Store, error) {
	if _, err := svc.Resolve(ctx, root); err != nil {
		if _, err := svc.CreateLog(ctx, root, 0o755, "mail"); err != nil {
			return nil, err
		}
	}
	return &Store{svc: svc, root: root, box: make(map[string]*mailbox)}, nil
}

// CreateMailbox provisions a user's mailbox and flag sublog.
func (s *Store) CreateMailbox(ctx context.Context, user string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.mailboxLocked(ctx, user, true)
	return err
}

// Deliver appends a message to the user's mail history (forced: mail must
// survive a crash once accepted) and returns its message id.
func (s *Store) Deliver(ctx context.Context, user string, from, subject, body string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb, err := s.mailboxLocked(ctx, user, false)
	if err != nil {
		return 0, err
	}
	m := &Message{From: from, Subject: subject, Body: body}
	ts, err := s.svc.Append(ctx, mb.msgID, m.encode(), logapi.AppendOptions{Timestamped: true, Forced: true})
	if err != nil {
		return 0, err
	}
	m.Delivered = ts
	mb.msgs = append(mb.msgs, m)
	return ts, nil
}

// DeliverCC appends one message to several mailboxes at once, using a
// single multi-membership log entry (§2.1) — the message is stored once,
// yet appears in every recipient's history. All recipients must live on
// one shard; cross-shard recipient sets surface logapi.ErrShardRange.
func (s *Store) DeliverCC(ctx context.Context, users []string, from, subject, body string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(users) == 0 {
		return 0, fmt.Errorf("mailstore: no recipients")
	}
	boxes := make([]*mailbox, len(users))
	ids := make([]logapi.ID, len(users))
	for i, u := range users {
		mb, err := s.mailboxLocked(ctx, u, false)
		if err != nil {
			return 0, err
		}
		boxes[i] = mb
		ids[i] = mb.msgID
	}
	m := &Message{From: from, Subject: subject, Body: body}
	ts, err := s.svc.AppendMulti(ctx, ids, m.encode(), logapi.AppendOptions{Timestamped: true, Forced: true})
	if err != nil {
		return 0, err
	}
	for _, mb := range boxes {
		cp := *m
		cp.Delivered = ts
		mb.msgs = append(mb.msgs, &cp)
	}
	return ts, nil
}

// List returns the user's messages in delivery order; hidden messages are
// included only when includeHidden is set (they are never gone — §4.2's
// Walnut comparison: this design does not allow permanent deletion).
func (s *Store) List(ctx context.Context, user string, includeHidden bool) ([]*Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb, err := s.mailboxLocked(ctx, user, false)
	if err != nil {
		return nil, err
	}
	out := make([]*Message, 0, len(mb.msgs))
	for _, m := range mb.msgs {
		if m.Hidden && !includeHidden {
			continue
		}
		cp := *m
		out = append(out, &cp)
	}
	return out, nil
}

// MarkRead logs and applies a read mark.
func (s *Store) MarkRead(ctx context.Context, user string, id int64) error {
	return s.setFlag(ctx, user, id, flagRead)
}

// Hide logs and applies a hide mark (a soft delete: the message stays in
// the history and in List(includeHidden)).
func (s *Store) Hide(ctx context.Context, user string, id int64) error {
	return s.setFlag(ctx, user, id, flagHide)
}

func (s *Store) setFlag(ctx context.Context, user string, id int64, kind byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb, err := s.mailboxLocked(ctx, user, false)
	if err != nil {
		return err
	}
	m := mb.find(id)
	if m == nil {
		return fmt.Errorf("%w: %d", ErrNoMessage, id)
	}
	rec := append([]byte{kind}, wire.PutUint64(nil, uint64(id))...)
	if _, err := s.svc.Append(ctx, mb.flagID, rec, logapi.AppendOptions{Timestamped: true}); err != nil {
		return err
	}
	applyFlag(m, kind)
	return nil
}

func applyFlag(m *Message, kind byte) {
	switch kind {
	case flagRead:
		m.Read = true
	case flagHide:
		m.Hidden = true
	}
}

func (mb *mailbox) find(id int64) *Message {
	for _, m := range mb.msgs {
		if m.Delivered == id {
			return m
		}
	}
	return nil
}

// EvictCache drops all cached mailbox state; subsequent operations rebuild
// it from the mail and flag histories (used by tests and after recovery).
func (s *Store) EvictCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.box = make(map[string]*mailbox)
}

// mailboxLocked returns the cached mailbox, rebuilding it from the logs —
// the agent re-deriving its pointers and cached copies from the history.
func (s *Store) mailboxLocked(ctx context.Context, user string, create bool) (*mailbox, error) {
	if mb, ok := s.box[user]; ok {
		return mb, nil
	}
	msgPath := s.root + "/" + user
	flagPath := msgPath + "/.flags"
	msgID, err := s.svc.Resolve(ctx, msgPath)
	if err != nil {
		if !create {
			return nil, fmt.Errorf("%w: %q", ErrNoMailbox, user)
		}
		if msgID, err = s.svc.CreateLog(ctx, msgPath, 0o600, user); err != nil {
			return nil, err
		}
	}
	flagID, err := s.svc.Resolve(ctx, flagPath)
	if err != nil {
		if flagID, err = s.svc.CreateLog(ctx, flagPath, 0o600, user); err != nil {
			return nil, err
		}
	}
	mb := &mailbox{user: user, msgID: msgID, flagID: flagID}
	// Replay the mail history. The mailbox log's entries include the flag
	// sublog's (it is a sublog), so filter by id. Entry ids are
	// shard-local; the mailbox and its flag sublog share a shard.
	cur, err := s.svc.OpenCursor(ctx, msgPath)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var flags []struct {
		kind byte
		id   int64
	}
	for {
		e, err := cur.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch {
		case e.MemberOf(mb.msgID.Local()) && e.LogID != mb.flagID.Local():
			m, derr := decodeMessage(e.Data)
			if derr != nil {
				continue // damaged message entry: lost
			}
			m.Delivered = e.Timestamp
			mb.msgs = append(mb.msgs, m)
		case e.LogID == mb.flagID.Local():
			if len(e.Data) == 9 {
				id, _ := wire.Uint64(e.Data[1:])
				flags = append(flags, struct {
					kind byte
					id   int64
				}{e.Data[0], int64(id)})
			}
		}
	}
	for _, f := range flags {
		if m := mb.find(f.id); m != nil {
			applyFlag(m, f.kind)
		}
	}
	s.box[user] = mb
	return mb, nil
}
