package main

import (
	wl "clio/internal/workload"
)

// opStream is the benchmark's entry stream: the login, mail and
// transaction traces of internal/workload mixed 8:1:3 (≈ 148 B mean — 60 B
// audit records spread over 16 sparse sublogs, 64 B commit records, and
// 0.2–2 KB mail bodies that fragment across 1 KiB blocks). Every path is
// rebased under root, so each connection can own a log-file tree. The
// stream is a pure function of (seed, lane): cliod sees only the ops.
type opStream struct {
	seed  int64
	lane  int
	root  string
	trace *wl.MixedTrace
}

func newOpStream(seed int64, lane int, root string) *opStream {
	s := seed*1024 + int64(lane)*8
	return &opStream{
		seed: seed, lane: lane, root: root,
		trace: wl.NewMixedTrace(s, []wl.Trace{
			wl.NewLoginTrace(s+1, 16),
			wl.NewMailTrace(s+2, 8),
			wl.NewTxnTrace(s+3, 64),
		}, []int{8, 1, 3}),
	}
}

// rewound returns the same stream positioned at its first op again.
func (s *opStream) rewound() *opStream { return newOpStream(s.seed, s.lane, s.root) }

// next returns the next op with its path rebased.
func (s *opStream) next() wl.Op {
	op := s.trace.Next()
	op.Log = s.root + op.Log
	return op
}

// logs lists every log file the stream can touch, parents before children,
// starting with the root itself when there is one.
func (s *opStream) logs() []string {
	var out []string
	if s.root != "" {
		out = append(out, s.root)
	}
	for _, l := range s.trace.Logs() {
		out = append(out, s.root+l)
	}
	return out
}
