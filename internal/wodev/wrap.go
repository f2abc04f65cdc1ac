package wodev

import (
	"math/rand"
	"sync"
)

// Damager is implemented by devices that support fault injection.
type Damager interface {
	Damage(idx int, garbage []byte) error
}

// Faulty wraps a Device with scripted fault injection for the §2.3.2
// experiments: after arming, the next appends scribble garbage instead of (or
// in addition to) writing, and chosen unwritten blocks are pre-damaged so the
// writer must invalidate and skip them.
type Faulty struct {
	Device
	mu sync.Mutex
	// garbageEvery > 0 damages every k-th appended block after the fact,
	// simulating a failure that wrote garbage to the volume.
	garbageEvery int
	appendCount  int
	rng          *rand.Rand
	damaged      []int // indices damaged post-append, for test assertions
}

// NewFaulty wraps dev (which must implement Damager, as MemDevice does).
func NewFaulty(dev Device, seed int64) *Faulty {
	return &Faulty{Device: dev, rng: rand.New(rand.NewSource(seed))}
}

// SetGarbageEvery arms the wrapper to damage every k-th appended block
// (k <= 0 disarms).
func (f *Faulty) SetGarbageEvery(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.garbageEvery = k
}

// Damaged returns the indices of blocks this wrapper damaged after append.
func (f *Faulty) Damaged() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.damaged))
	copy(out, f.damaged)
	return out
}

// AppendBlock appends and, when armed, immediately damages the block.
func (f *Faulty) AppendBlock(data []byte) (int, error) {
	idx, err := f.Device.AppendBlock(data)
	if err != nil {
		return idx, err
	}
	return idx, f.maybeDamage(idx)
}

// WriteAt writes and, when armed, immediately damages the block.
func (f *Faulty) WriteAt(idx int, data []byte) error {
	if err := f.Device.WriteAt(idx, data); err != nil {
		return err
	}
	return f.maybeDamage(idx)
}

func (f *Faulty) maybeDamage(idx int) error {
	f.mu.Lock()
	f.appendCount++
	hit := f.garbageEvery > 0 && f.appendCount%f.garbageEvery == 0
	var garbage []byte
	if hit {
		f.damaged = append(f.damaged, idx)
		garbage = make([]byte, f.Device.BlockSize())
		f.rng.Read(garbage)
	}
	f.mu.Unlock()
	if hit {
		if d, ok := f.Device.(Damager); ok {
			return d.Damage(idx, garbage)
		}
	}
	return nil
}
