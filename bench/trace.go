package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Parent is the ID of the span that caused this
// one (0 = none); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls and Bytes count the Write calls and bytes written during a
	// connection cycle (net and server spans only).
	Calls int64 `json:"calls,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span budgets bound the in-memory trace and the file written from it; the
// counters most metrics come from keep counting past them. The stack pass
// and the ladder each get their own, so a busy pass cannot starve the other.
const (
	stackSpanBudget  = 300000
	ladderSpanBudget = 150000
)

// tracer keeps spans in memory until the run ends. Only spans that lie
// inside the current recording interval are kept: set-up and warm-up would
// otherwise fill the trace before the measured windows begin.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	from, to int64 // recording interval, ns since epoch
	limit    int   // spans kept at most, all intervals together
	spans    []span
	dropped  int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), to: math.MaxInt64, limit: stackSpanBudget}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record sets the interval whose spans are kept, and how many of them.
func (t *tracer) record(from, to time.Time, budget int) {
	t.mu.Lock()
	t.from, t.to = t.since(from), t.since(to)
	t.limit = len(t.spans) + budget
	t.mu.Unlock()
}

// add records a finished span and returns its ID (0 when the trace is full).
func (t *tracer) add(layer string, parent int, req uint64, start, end time.Time) int {
	s, e := t.since(start), t.since(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s < t.from || e > t.to {
		return 0
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Req: req, Start: s, End: e})
	return id
}

// annotate attaches a connection cycle's write counts to its span.
func (t *tracer) annotate(id int, calls, bytes int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Calls, t.spans[id-1].Bytes = calls, bytes
	t.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are not
// counted twice, and a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// adopt gives every parentless span of the child layers the innermost span
// of the parent layer, on the same request lane, whose interval contains
// it. It links the chains a wrapper cannot link at record time (a socket
// wrapper does not know which client call is using it).
func adopt(spans []span, parentLayer string, childLayers ...string) {
	isChild := map[string]bool{}
	for _, l := range childLayers {
		isChild[l] = true
	}
	byLane := map[uint64][]int{}
	for i, s := range spans {
		if s.Layer == parentLayer {
			byLane[s.Req>>32] = append(byLane[s.Req>>32], i)
		}
	}
	for _, idx := range byLane {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		c := &spans[i]
		if !isChild[c.Layer] || c.Parent != 0 {
			continue
		}
		idx := byLane[c.Req>>32]
		// Last parent starting at or before the child.
		j := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].Start > c.Start }) - 1
		if j >= 0 && spans[idx[j]].End >= c.End {
			c.Parent = spans[idx[j]].ID
			c.Req = spans[idx[j]].Req
		}
	}
}

// writeFile writes the trace as one JSON document.
func (t *tracer) writeFile(path, workload string) error {
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped, t.spans}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
