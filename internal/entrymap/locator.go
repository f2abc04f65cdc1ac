package entrymap

import (
	"sort"

	"clio/internal/wire"
)

// Source is the read-side view the Locator searches over. It is implemented
// by the core service (backed by the block cache and the writer's in-memory
// accumulator) and by test fakes.
type Source interface {
	// End returns the number of readable data blocks: sealed blocks plus the
	// staged tail block, if any.
	End() int
	// ViewAt returns the entrymap entry of the given level nominally due at
	// the given boundary block, as a View the caller reads before its next
	// call into the Source. Implementations handle displaced entries
	// (§2.3.2). ok=false means the entry is missing — the caller falls back
	// to searching lower levels.
	ViewAt(level, boundary int) (v View, ok bool, err error)
	// Pending returns the union over ids (ascending) of the writer's
	// in-memory bitmaps for the given level's in-progress span: bit g is set
	// when any of the log files has entries in group g. spanStart is where
	// the caller, going by End, takes that span to start. A writer running
	// beside the search may have completed the span since (its entrymap
	// entry is emitted but not yet readable): the implementation then
	// reports known=false, and the caller searches the span's blocks
	// conservatively, as for a missing entrymap entry. The span is unknown
	// for the set when it is unknown for any id of it. The bitmap comes back
	// by value, so a probe allocates nothing.
	Pending(level, spanStart int, ids []uint16) (bm [MaxDegree / 8]byte, known bool)
	// BlockContains reports whether the given data block holds at least one
	// entry (or fragment) of any log file in ids (ascending). Used only when
	// entrymap information is missing; unreadable blocks report false.
	BlockContains(block int, ids []uint16) (bool, error)
	// BlockFirstTS returns the footer timestamp of the block's first entry;
	// ok is false for unreadable blocks.
	BlockFirstTS(block int) (ts int64, ok bool, err error)
}

// LocateStats counts the work a locate performed, for the Figure 3 / Table 1
// experiments. The tags are the fields' /metrics series (obs.RegisterStruct).
type LocateStats struct {
	EntriesExamined int `metric:"clio_entrymap_entries_examined_total" help:"Entrymap log entries decoded and inspected by locator searches."`
	PendingExamined int `metric:"clio_entrymap_pending_examined_total" help:"In-memory accumulator bitmap inspections by locator searches."`
	RawScans        int `metric:"clio_entrymap_raw_scans_total" help:"Data blocks scanned directly because entrymap information was missing."`
	TimestampReads  int `metric:"clio_entrymap_timestamp_reads_total" help:"Block footers read during time searches."`
}

// Locator searches the entrymap tree for the blocks holding entries of a set
// of log files — one file, or a parent log and its sublogs (§2.1). Every
// level's probe reads the entrymap entry once and ORs the set's bitmaps in
// one walk of it (View.Union), so the cost of a search does not grow with the
// size of the set. The union is built in a fixed array on the stack frame of
// the level that reads it: a search allocates nothing.
type Locator struct {
	src Source
	n   int
	// Stats accumulates across calls; callers reset it between measurements.
	Stats LocateStats
}

// NewLocator returns a locator of degree n over src.
func NewLocator(src Source, n int) (*Locator, error) {
	if n < MinDegree || n > MaxDegree {
		return nil, ErrDegree
	}
	return &Locator{src: src, n: n}, nil
}

// unionBuf holds one level's union bitmap: wide enough for any degree.
type unionBuf = [MaxDegree / 8]byte

// bitmapAt fetches into buf the union over ids of the bitmaps covering the
// level-`level` span starting at spanStart. known=false means entrymap
// information for the span is unavailable and the caller must search lower
// levels conservatively.
func (l *Locator) bitmapAt(level, spanStart int, ids []uint16, end int, buf *unionBuf) (bm wire.Bitmap, known bool, err error) {
	bm, known, _, err = l.bitmapAtP(level, spanStart, ids, end, buf)
	return bm, known, err
}

// bitmapAtP additionally reports whether the span was the in-progress
// partial span (answered from the accumulator rather than a written entry).
func (l *Locator) bitmapAtP(level, spanStart int, ids []uint16, end int, buf *unionBuf) (bm wire.Bitmap, known, partial bool, err error) {
	span := pow(l.n, level)
	boundary := spanStart + span
	if boundary < end {
		v, ok, err := l.src.ViewAt(level, boundary)
		if err != nil || !ok {
			return nil, false, false, err
		}
		l.Stats.EntriesExamined++
		return v.Union(ids, buf[:]), true, false, nil
	}
	// The span is still in progress (or its boundary block is the staged
	// tail): the writer's accumulator is authoritative.
	l.Stats.PendingExamined++
	if *buf, known = l.src.Pending(level, spanStart, ids); !known {
		return nil, false, true, nil
	}
	bm = buf[:(l.n+7)/8]
	// The accumulator's level-L bitmap only covers child spans whose entries
	// have been emitted. The child span containing the write point has not
	// rolled up yet: synthesize its bit from the lower levels' pending state,
	// set when any id of the set has something pending there.
	if level >= 2 && l.pendingBelow(level-1, ids, end) {
		childSpan := span / l.n
		if gCur := (end - 1 - spanStart) / childSpan; gCur >= 0 && gCur < l.n {
			bm.Set(gCur)
		}
	}
	return bm, true, true, nil
}

// pendingBelow reports whether any of ids has, or may have, any entry
// recorded in the pending spans of levels 1..lvl.
func (l *Locator) pendingBelow(lvl int, ids []uint16, end int) bool {
	for i := lvl; i >= 1; i-- {
		span := pow(l.n, i)
		bm, known := l.src.Pending(i, (end-1)/span*span, ids)
		if !known || bm != (unionBuf{}) {
			return true
		}
	}
	return false
}

// FindPrev returns the greatest data-block index < before containing at
// least one entry (or fragment) of any log file in ids, or -1 if there is
// none. ids must be ascending.
func (l *Locator) FindPrev(ids []uint16, before int) (int, error) {
	end := l.src.End()
	if before > end {
		before = end
	}
	if before <= 0 {
		return -1, nil
	}
	low := before // invariant: no entries of ids in [low, before)
	var buf unionBuf
	for level := 1; ; {
		span := pow(l.n, level)
		childSpan := span / l.n
		spanStart := ((low - 1) / span) * span
		gLow := (low - spanStart + childSpan - 1) / childSpan // first group at/above low
		bm, known, partial, err := l.bitmapAtP(level, spanStart, ids, end, &buf)
		if err != nil {
			return -1, err
		}
		if known {
			for g := bm.LastSet(gLow); g >= 0; g = bm.LastSet(g) {
				if level == 1 {
					return spanStart + g, nil
				}
				r, err := l.descendPrev(ids, level-1, spanStart+g*childSpan, end)
				if err != nil {
					return -1, err
				}
				if r >= 0 {
					return r, nil
				}
			}
		} else {
			for g := gLow - 1; g >= 0; g-- {
				r, err := l.probePrev(ids, level, spanStart, g, end)
				if err != nil {
					return -1, err
				}
				if r >= 0 {
					return r, nil
				}
			}
		}
		if spanStart == 0 {
			return -1, nil
		}
		low = spanStart
		// A miss in the in-progress partial span was answered from memory;
		// the adjacent *written* span at the same level is checked next
		// (§3.3.1's accounting: the first entrymap log entry read is the
		// level-1 entry just below the write point). A miss in a written
		// span ascends.
		if !partial {
			level++
		}
	}
}

// descendPrev returns the last block containing any of ids within the
// level-`level` span starting at spanStart, all of which is in scope, or -1.
func (l *Locator) descendPrev(ids []uint16, level, spanStart, end int) (int, error) {
	if level == 0 {
		// A single block vouched for by a parent bitmap; verify by raw scan
		// only if asked to (parents are authoritative), so return directly.
		return spanStart, nil
	}
	childSpan := pow(l.n, level-1)
	var buf unionBuf
	bm, known, err := l.bitmapAt(level, spanStart, ids, end, &buf)
	if err != nil {
		return -1, err
	}
	if known {
		if bm == nil {
			return -1, nil
		}
		for g := bm.LastSet(l.n); g >= 0; g = bm.LastSet(g) {
			if level == 1 {
				return spanStart + g, nil
			}
			r, err := l.descendPrev(ids, level-1, spanStart+g*childSpan, end)
			if err != nil {
				return -1, err
			}
			if r >= 0 {
				return r, nil
			}
		}
		return -1, nil
	}
	for g := l.n - 1; g >= 0; g-- {
		r, err := l.probePrev(ids, level, spanStart, g, end)
		if err != nil {
			return -1, err
		}
		if r >= 0 {
			return r, nil
		}
	}
	return -1, nil
}

// probePrev searches group g of the level-`level` span at spanStart without
// bitmap help: level 1 groups are raw blocks, higher groups recurse.
func (l *Locator) probePrev(ids []uint16, level, spanStart, g, end int) (int, error) {
	childSpan := pow(l.n, level-1)
	lo := spanStart + g*childSpan
	if lo >= end {
		return -1, nil
	}
	if level == 1 {
		l.Stats.RawScans++
		ok, err := l.src.BlockContains(lo, ids)
		if err != nil {
			return -1, err
		}
		if ok {
			return lo, nil
		}
		return -1, nil
	}
	return l.descendPrev(ids, level-1, lo, end)
}

// Run is the level-1 span a FindNext answer was found in, with the span's
// written bitmap: the union over the searched ids of the span's level-1
// entrymap entry, bit g set when block Start+g holds an entry (or fragment)
// of the set. A written entry never changes, so a scan that has taken the
// answer can take the span's later blocks off the bitmap (Next) and search
// again only from End. A run is empty (End == 0) when the answer came
// without a written entry: from the in-progress span, whose bitmap still
// gains bits as the writer fills it, or from a span searched block by block.
type Run struct {
	Start, End int
	bits       unionBuf
}

// Next returns the first block at or after from, within the run's span,
// that holds an entry of the set, or -1 when none does; from must lie in
// [Start, End).
func (r *Run) Next(from int) int {
	if g := wire.Bitmap(r.bits[:]).FirstSet(from - r.Start); g >= 0 && r.Start+g < r.End {
		return r.Start + g
	}
	return -1
}

// Covers reports whether block b lies in the run's span.
func (r *Run) Covers(b int) bool { return b >= r.Start && b < r.End }

// setRun records the written level-1 span at spanStart, its union in buf,
// as the answer's run.
func (l *Locator) setRun(run *Run, spanStart int, buf *unionBuf) {
	run.Start, run.End, run.bits = spanStart, spanStart+l.n, *buf
}

// FindNext returns the smallest data-block index >= from containing at least
// one entry (or fragment) of any log file in ids, or -1 if there is none,
// with the run the answer was found in (see Run). The run costs the search
// nothing: it is the level-1 bitmap the descent read to reach the answer.
// ids must be ascending.
func (l *Locator) FindNext(ids []uint16, from int) (int, Run, error) {
	var run Run
	b, err := l.findNext(ids, from, &run)
	return b, run, err
}

func (l *Locator) findNext(ids []uint16, from int, run *Run) (int, error) {
	end := l.src.End()
	if from < 0 {
		from = 0
	}
	if from >= end {
		return -1, nil
	}
	high := from // invariant: no entries of ids in [from, high)
	var buf unionBuf
	for level := 1; ; level++ {
		span := pow(l.n, level)
		childSpan := span / l.n
		spanStart := (high / span) * span
		gHigh := (high - spanStart) / childSpan // first group at/above high
		bm, known, partial, err := l.bitmapAtP(level, spanStart, ids, end, &buf)
		if err != nil {
			return -1, err
		}
		if known {
			g := -1
			if bm != nil {
				g = bm.FirstSet(gHigh)
			}
			for g >= 0 {
				if level == 1 {
					if !partial {
						l.setRun(run, spanStart, &buf)
					}
					return spanStart + g, nil
				}
				r, err := l.descendNext(ids, level-1, spanStart+g*childSpan, end, run)
				if err != nil {
					return -1, err
				}
				if r >= 0 {
					return r, nil
				}
				g = bm.FirstSet(g + 1)
			}
		} else {
			for g := gHigh; g < l.n; g++ {
				r, err := l.probeNext(ids, level, spanStart, g, end, run)
				if err != nil {
					return -1, err
				}
				if r >= 0 {
					return r, nil
				}
			}
		}
		high = spanStart + span
		if high >= end {
			return -1, nil
		}
	}
}

// descendNext mirrors descendPrev for forward search, recording the run of
// an answer found through a written level-1 entry.
func (l *Locator) descendNext(ids []uint16, level, spanStart, end int, run *Run) (int, error) {
	if level == 0 {
		return spanStart, nil
	}
	childSpan := pow(l.n, level-1)
	var buf unionBuf
	bm, known, partial, err := l.bitmapAtP(level, spanStart, ids, end, &buf)
	if err != nil {
		return -1, err
	}
	if known {
		if bm == nil {
			return -1, nil
		}
		for g := bm.FirstSet(0); g >= 0; g = bm.FirstSet(g + 1) {
			if level == 1 {
				if !partial {
					l.setRun(run, spanStart, &buf)
				}
				return spanStart + g, nil
			}
			r, err := l.descendNext(ids, level-1, spanStart+g*childSpan, end, run)
			if err != nil {
				return -1, err
			}
			if r >= 0 {
				return r, nil
			}
		}
		return -1, nil
	}
	for g := 0; g < l.n; g++ {
		r, err := l.probeNext(ids, level, spanStart, g, end, run)
		if err != nil {
			return -1, err
		}
		if r >= 0 {
			return r, nil
		}
	}
	return -1, nil
}

func (l *Locator) probeNext(ids []uint16, level, spanStart, g, end int, run *Run) (int, error) {
	childSpan := pow(l.n, level-1)
	lo := spanStart + g*childSpan
	if lo >= end {
		return -1, nil
	}
	if level == 1 {
		l.Stats.RawScans++
		ok, err := l.src.BlockContains(lo, ids)
		if err != nil {
			return -1, err
		}
		if ok {
			return lo, nil
		}
		return -1, nil
	}
	return l.descendNext(ids, level-1, lo, end, run)
}

// FindByTime returns the greatest data-block index whose first-entry
// timestamp is <= ts, or -1 if ts precedes the volume's first entry. Block
// first-entry timestamps are non-decreasing in write order, and a header
// timestamp is mandatory for the first entry in each block, so the result
// block either contains the last entry written at or before ts or directly
// follows it (§2.1).
//
// The search is one descent, level by level, using the blocks at entrymap
// boundaries as landmarks — "at the upper levels of the tree, the search uses
// those blocks that happen to contain entrymap log entries" — so repeated
// time searches hit the same well-known blocks in the cache. Level 0 is the
// same step with span 1: one binary search per level, so a search dates at
// most 1 + Σ_levels ⌈log2(count+1)⌉ blocks. A block that cannot date itself
// (damaged, or a tail whose footer timestamp is not yet set) reads as later
// than ts at every level, so the answer may come out early but never past
// the true block; a caller that scans forward from it loses reads, not
// entries.
func (l *Locator) FindByTime(ts int64) (int, error) {
	end := l.src.End()
	if end == 0 {
		return -1, nil
	}
	first, ok, err := l.readTS(0)
	if err != nil {
		return -1, err
	}
	if ok && first > ts {
		return -1, nil
	}
	lo, hi := 0, end // invariant: firstTS(lo) <= ts (when readable), answer in [lo, hi)
	for level := MaxLevel(l.n, end) + 1; level >= 0; level-- {
		span := pow(l.n, level)
		firstLandmark := (lo/span + 1) * span
		if firstLandmark >= hi {
			continue
		}
		count := (hi-1-firstLandmark)/span + 1
		// Binary search the landmarks for the last one with firstTS <= ts.
		idx := sort.Search(count, func(i int) bool {
			bts, ok, rerr := l.readTS(firstLandmark + i*span)
			if rerr != nil {
				err = rerr
			}
			return rerr != nil || !ok || bts > ts
		})
		if err != nil {
			return -1, err
		}
		if idx > 0 {
			lo = firstLandmark + (idx-1)*span
		}
		if idx < count {
			hi = firstLandmark + idx*span
		}
	}
	return lo, nil
}

func (l *Locator) readTS(block int) (int64, bool, error) {
	l.Stats.TimestampReads++
	return l.src.BlockFirstTS(block)
}
