package volume

import (
	"errors"

	"clio/internal/blockfmt"
	"clio/internal/wodev"
)

// ErrChainLost is returned by Assemble for an entry whose fragment chain
// cannot be followed to its final fragment.
var ErrChainLost = errors.New("volume: entry lost (fragment chain torn, broken or unreadable)")

// ReadBlock reads and decodes global data block `global` from its mounted
// volume. An invalidated block is reported as wodev.ErrInvalidated, a
// damaged one (its image fails blockfmt.Validate) as wodev.ErrCorrupt.
func (s *Set) ReadBlock(global int) (*blockfmt.Parsed, error) {
	v, local, err := s.Locate(global)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, v.Dev.BlockSize())
	if err := v.Dev.ReadBlock(v.DeviceBlock(local), buf); err != nil {
		return nil, err
	}
	if !blockfmt.Validate(buf) {
		return nil, wodev.ErrCorrupt
	}
	p, err := blockfmt.Parse(buf)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// Assemble returns the full client data of the entry whose first fragment is
// record idx of global block `global`, already decoded as first. It is the
// one statement of how an entry fragments across blocks (§2.1 footnote 7):
//
//   - an unfragmented entry is its record's data, returned as is (a subslice
//     of the block image; nothing is built or fetched);
//   - otherwise the entry continues as the first Continued record with the
//     same log-file id in each following block, up to the first such record
//     that does not itself continue;
//   - a following block that reads as wodev.ErrInvalidated is passed over:
//     it may be one the writer found damaged, invalidated and slid its
//     staged contents past (§2.3.2), and the chain then carries on in the
//     block after it;
//   - each continuation must be the fragment the chain expects next, by the
//     number its block's footer carries (blockfmt.FragmentFlags): a
//     fragment that was invalidated after its block was written — an fsck
//     repair of a damaged block — leaves a number skipped, where a slide
//     leaves none. A block whose footer numbers no fragment (one written
//     before fragments were numbered) is taken as it comes;
//   - any other failure to fetch a following block (damaged, unwritten, past
//     the readable end), a block without a continuation for the id, or a
//     continuation out of sequence loses the entry: ErrChainLost.
//
// fetch is all that differs between readers: where a decoded block comes
// from, and where the readable history ends. It must fail with something
// other than wodev.ErrInvalidated past that end.
func Assemble(first *blockfmt.Parsed, global, idx int, fetch func(global int) (*blockfmt.Parsed, error)) ([]byte, error) {
	var rec blockfmt.RecordView
	first.Record(idx, &rec)
	return AssembleInto(nil, &rec, global, fetch)
}

// AssembleInto is Assemble given rec, the view of the entry's first
// fragment, joining a fragmented entry's data in dst's storage, which it
// grows as needed, rather than in a new allocation; the data of an
// unfragmented entry is still the record's own.
func AssembleInto(dst []byte, rec *blockfmt.RecordView, global int, fetch func(global int) (*blockfmt.Parsed, error)) ([]byte, error) {
	if !rec.Continues {
		return rec.Data, nil
	}
	out := append(dst[:0], rec.Data...)
	var next blockfmt.RecordView
	k := 0 // the fragment last appended to out
	for b := global + 1; ; b++ {
		p, err := fetch(b)
		if errors.Is(err, wodev.ErrInvalidated) {
			continue
		}
		if err != nil {
			return nil, ErrChainLost
		}
		if !continuation(p, rec.LogID, &next) {
			return nil, ErrChainLost
		}
		if k++; !InSequence(p, k) {
			return nil, ErrChainLost
		}
		out = append(out, next.Data...)
		if !next.Continues {
			return out, nil
		}
	}
}

// InSequence reports whether block p may hold fragment k >= 1 of the entry
// a chain is following: its footer numbers that fragment, or no fragment.
func InSequence(p *blockfmt.Parsed, k int) bool {
	tag := p.Flags & blockfmt.FlagsFragment
	return tag == 0 || tag == blockfmt.FragmentFlags(k)
}

// continuation fills r with the block's first Continued record for the id,
// and reports whether it has one.
func continuation(p *blockfmt.Parsed, id uint16, r *blockfmt.RecordView) bool {
	for i := range p.Len() {
		if p.Record(i, r); r.LogID == id && r.Continued {
			return true
		}
	}
	return false
}
