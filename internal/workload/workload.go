// Package workload provides seeded, deterministic workload generators for
// the benchmark harness — synthetic stand-ins for the traces the paper
// measured, calibrated to the parameters it reports.
//
//   - LoginTrace reproduces the §3.5 measurement: the V-System login/logout
//     log file system with c ≈ 1/15 (the average entry occupies about 1/15
//     of a 1 KiB block) and a ≈ 8 (about eight log files are referenced in
//     an average entrymap entry).
//   - MailTrace drives the §4.2 mail design: deliveries to per-user
//     mailboxes with bursty arrivals and larger bodies.
//   - TxnTrace models the transaction-commit logging of §2.3.1: small
//     records, every one forced.
//
// Generators are pure: the same seed yields the same op sequence.
package workload

import (
	"fmt"
	"math/rand"
)

// Op is one append operation against a named log file.
type Op struct {
	// Log is the absolute log-file path the entry goes to.
	Log string
	// Data is the entry payload.
	Data []byte
	// Forced requests a synchronous write.
	Forced bool
	// Timestamped requests the full header form.
	Timestamped bool
}

// Trace is a deterministic op stream.
type Trace interface {
	// Next returns the next op.
	Next() Op
	// Logs returns every log-file path the trace may reference, so callers
	// can create them up front.
	Logs() []string
}

// LoginTrace generates login/logout audit entries across a set of per-user
// sublogs plus the shared session log.
type LoginTrace struct {
	rng   *rand.Rand
	users []string
	hosts []string
	seq   int
}

// NewLoginTrace returns a login/logout trace over `users` user sublogs.
// With 16 users uniformly active and ~66-byte entries on 1 KiB blocks, the
// measured c and a land near the paper's 1/15 and 8.
func NewLoginTrace(seed int64, users int) *LoginTrace {
	rng := rand.New(rand.NewSource(seed))
	t := &LoginTrace{rng: rng}
	for i := 0; i < users; i++ {
		t.users = append(t.users, fmt.Sprintf("user%02d", i))
	}
	for i := 0; i < 8; i++ {
		t.hosts = append(t.hosts, fmt.Sprintf("sun3-%02d.stanford", i))
	}
	return t
}

// Logs implements Trace.
func (t *LoginTrace) Logs() []string {
	out := []string{"/sessions"}
	for _, u := range t.users {
		out = append(out, "/sessions/"+u)
	}
	return out
}

// Next implements Trace.
func (t *LoginTrace) Next() Op {
	t.seq++
	u := t.users[t.rng.Intn(len(t.users))]
	h := t.hosts[t.rng.Intn(len(t.hosts))]
	kind := "login"
	if t.rng.Intn(2) == 1 {
		kind = "logout"
	}
	// ~60 bytes of client data: with the 4-byte minimal header this gives
	// c = 64/1024 ≈ 1/16 on 1 KiB blocks.
	payload := fmt.Sprintf("%-6s %-8s tty%02d %s pid=%05d", kind, u,
		t.rng.Intn(64), h, t.rng.Intn(100000))
	for len(payload) < 60 {
		payload += " "
	}
	return Op{Log: "/sessions/" + u, Data: []byte(payload[:60])}
}

// MailTrace generates mail deliveries.
type MailTrace struct {
	rng   *rand.Rand
	users []string
}

// NewMailTrace returns a mail trace over the given number of mailboxes.
func NewMailTrace(seed int64, users int) *MailTrace {
	t := &MailTrace{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < users; i++ {
		t.users = append(t.users, fmt.Sprintf("mbox%02d", i))
	}
	return t
}

// Logs implements Trace.
func (t *MailTrace) Logs() []string {
	out := []string{"/mail"}
	for _, u := range t.users {
		out = append(out, "/mail/"+u)
	}
	return out
}

// Next implements Trace.
func (t *MailTrace) Next() Op {
	u := t.users[t.rng.Intn(len(t.users))]
	body := make([]byte, 200+t.rng.Intn(1800))
	for i := range body {
		body[i] = byte('a' + t.rng.Intn(26))
	}
	return Op{Log: "/mail/" + u, Data: body, Forced: true, Timestamped: true}
}

// TxnTrace generates small forced transaction-commit records.
type TxnTrace struct {
	rng  *rand.Rand
	size int
	seq  int
}

// NewTxnTrace returns a commit-record trace with the given record size.
func NewTxnTrace(seed int64, recordSize int) *TxnTrace {
	if recordSize <= 0 {
		recordSize = 50
	}
	return &TxnTrace{rng: rand.New(rand.NewSource(seed)), size: recordSize}
}

// Logs implements Trace.
func (t *TxnTrace) Logs() []string { return []string{"/txnlog"} }

// Next implements Trace.
func (t *TxnTrace) Next() Op {
	t.seq++
	data := make([]byte, t.size)
	copy(data, fmt.Sprintf("commit txid=%08d", t.seq))
	return Op{Log: "/txnlog", Data: data, Forced: true, Timestamped: true}
}

// MixedTrace interleaves several traces with weights.
type MixedTrace struct {
	rng     *rand.Rand
	traces  []Trace
	weights []int
	total   int
}

// NewMixedTrace composes traces; weights give relative op frequencies.
func NewMixedTrace(seed int64, traces []Trace, weights []int) *MixedTrace {
	m := &MixedTrace{rng: rand.New(rand.NewSource(seed)), traces: traces, weights: weights}
	for _, w := range weights {
		m.total += w
	}
	return m
}

// Logs implements Trace.
func (m *MixedTrace) Logs() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range m.traces {
		for _, l := range t.Logs() {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}

// Next implements Trace.
func (m *MixedTrace) Next() Op {
	r := m.rng.Intn(m.total)
	for i, w := range m.weights {
		if r < w {
			return m.traces[i].Next()
		}
		r -= w
	}
	return m.traces[len(m.traces)-1].Next()
}
