package entrymap

// RecoverSource provides the raw access reconstruction needs after a crash:
// the ability to list which log files have entries in a sealed block, and to
// read already-written entrymap entries.
type RecoverSource interface {
	// BlockIDs returns the tracked log-file ids with entries (or fragments)
	// in the given sealed data block. Unreadable (invalidated or damaged)
	// blocks return nil, nil: their contents are lost (§2.3.2).
	BlockIDs(block int) ([]uint16, error)
	// ViewAt is as in Source: the entrymap entry of the given level due at
	// the given boundary, ok=false when missing.
	ViewAt(level, boundary int) (v View, ok bool, err error)
}

// ReconstructStats reports the work done during reconstruction, reproducing
// the cost analysed in §3.4 / Figure 4: to rebuild level-1 information the
// server examines the 0..N blocks since the last level-1 entrymap entry, and
// for each higher level the 0..N entrymap entries of the level below —
// N·log_N(b) blocks in the worst case, half that on average.
type ReconstructStats struct {
	// BlocksScanned counts sealed data blocks scanned directly.
	BlocksScanned int
	// EntriesRead counts entrymap entries read back.
	EntriesRead int
}

// Reconstruct rebuilds the writer's entrymap accumulator for a volume whose
// data blocks [0, end) are already written, as server initialization step 2
// (§2.3.1: "examines recently-written blocks, to reconstruct missing
// 'entrymap' information"). If an expected entrymap entry is missing, the
// covered span is rescanned from raw blocks — the entrymap is redundant, so
// this is always possible.
func Reconstruct(src RecoverSource, n, end int) (*Accumulator, ReconstructStats, error) {
	var stats ReconstructStats
	acc, err := NewAccumulator(n)
	if err != nil {
		return nil, stats, err
	}
	if end <= 0 {
		return acc, stats, nil
	}
	// Highest level with at least one rolled-up child: level lvl has state
	// once a level-(lvl-1) boundary has been emitted, i.e. once block
	// N^(lvl-1) has been started (end-1 >= N^(lvl-1)).
	top := 1
	for pow(n, top) <= end-1 {
		top++
	}
	// Entrymap entries due at a boundary b are written when the block at
	// index b is started, so with blocks [0, end) written the last emitted
	// boundary at any granularity g is floor((end-1)/g)*g, and the pending
	// span of level lvl is the one containing block end-1.
	//
	// Rebuild from the top level down. For each level lvl, the in-progress
	// span starts at S = floor((end-1) / N^lvl) * N^lvl, and the rolled-up
	// groups within it are the level-(lvl-1) spans ending at boundaries
	// S + k*N^(lvl-1) <= floor((end-1) / N^(lvl-1)) * N^(lvl-1).
	for lvl := top; lvl >= 1; lvl-- {
		span := pow(n, lvl)
		child := span / n
		spanStart := ((end - 1) / span) * span
		acc.level(lvl).spanStart = spanStart
		lastChildBoundary := ((end - 1) / child) * child
		for b := spanStart + child; b <= lastChildBoundary; b += child {
			ids, eErr := idsForSpan(src, n, lvl-1, b, &stats)
			if eErr != nil {
				return nil, stats, eErr
			}
			group := (b - child) / child
			for _, id := range ids {
				acc.noteGroup(lvl, group, id)
			}
		}
	}
	// Level-1 partial span: scan the blocks since the last level-1 boundary.
	l1Start := ((end - 1) / n) * n
	for blk := l1Start; blk < end; blk++ {
		ids, err := src.BlockIDs(blk)
		stats.BlocksScanned++
		if err != nil {
			return nil, stats, err
		}
		acc.NoteBlock(blk, ids)
	}
	return acc, stats, nil
}

// idsForSpan returns the tracked ids with entries in the level-`level` span
// ending at boundary (level 0 means the single block boundary-1), preferring
// the written entrymap entry and falling back to raw scans.
func idsForSpan(src RecoverSource, n, level, boundary int, stats *ReconstructStats) ([]uint16, error) {
	if level == 0 {
		stats.BlocksScanned++
		return src.BlockIDs(boundary - 1)
	}
	v, ok, err := src.ViewAt(level, boundary)
	if err != nil {
		return nil, err
	}
	if ok {
		stats.EntriesRead++
		e := v.Entry()
		ids := make([]uint16, 0, len(e.Maps))
		for _, m := range e.Maps {
			if !m.Bits.Empty() {
				ids = append(ids, m.ID)
			}
		}
		return ids, nil
	}
	// Missing entry: union the child spans.
	span := pow(n, level)
	child := span / n
	seen := make(map[uint16]bool)
	for b := boundary - span + child; b <= boundary; b += child {
		ids, err := idsForSpan(src, n, level-1, b, stats)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			seen[id] = true
		}
	}
	out := make([]uint16, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	return out, nil
}
