package wodev

import (
	"math/rand"
	"sync"
	"time"
)

// Flaky wraps a Device with a *transient*-fault model: individual reads and
// appends fail with ErrTransient (or stall for a latency spike) according to
// a seeded schedule, but the underlying media is untouched — a retry of the
// same operation can succeed. This is the soft-failure complement to Faulty,
// which models permanent media damage.
//
// Injection happens *before* delegating, so a failed operation truly did not
// execute: retrying an append cannot double-write, which is what makes the
// core retry loop safe to layer on top.
type Flaky struct {
	Device
	mu sync.Mutex

	rng    *rand.Rand
	paused bool

	// Probabilities in [0,1] of a transient error per operation.
	readErrProb   float64
	appendErrProb float64

	// Latency-spike schedule: with spikeProb, an operation sleeps spikeDur
	// (through the Sleep hook) before proceeding.
	spikeProb float64
	spikeDur  time.Duration

	// maxConsecutive bounds runs of injected failures so a bounded retry
	// policy is guaranteed to eventually get through (0 = unbounded).
	maxConsecutive int
	consecutive    int

	// Sleep is called for latency spikes; nil means time.Sleep.
	Sleep func(time.Duration)

	stats FlakyStats
}

// FlakyStats counts what the wrapper injected.
type FlakyStats struct {
	ReadFaults   int64
	AppendFaults int64
	Spikes       int64
}

// NewFlaky wraps dev with a seeded transient-fault schedule. All
// probabilities start at zero; arm with FailReads/FailAppends/Spike.
func NewFlaky(dev Device, seed int64) *Flaky {
	return &Flaky{Device: dev, rng: rand.New(rand.NewSource(seed))}
}

// FailReads sets the per-read transient-error probability.
func (f *Flaky) FailReads(prob float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readErrProb = prob
}

// FailAppends sets the per-append/write transient-error probability.
func (f *Flaky) FailAppends(prob float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.appendErrProb = prob
}

// Spike makes a fraction of operations stall for d before executing.
func (f *Flaky) Spike(prob float64, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spikeProb = prob
	f.spikeDur = d
}

// MaxConsecutive bounds runs of injected failures: after n consecutive
// injections the next operation is let through, so a retry policy with more
// than n attempts always converges. 0 removes the bound.
func (f *Flaky) MaxConsecutive(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.maxConsecutive = n
}

// Pause suspends all injection (recovery code paths — FindEnd probing,
// catalog replay — read the device without retry, so chaos tests pause the
// schedule around Open).
func (f *Flaky) Pause() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paused = true
}

// Resume re-enables injection.
func (f *Flaky) Resume() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paused = false
}

// Stats returns injection counters.
func (f *Flaky) FaultStats() FlakyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// inject decides, under the lock, whether this operation fails or stalls.
// It returns (fail, spike duration).
func (f *Flaky) inject(prob float64, counter *int64) (bool, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.paused {
		return false, 0
	}
	var spike time.Duration
	if f.spikeProb > 0 && f.rng.Float64() < f.spikeProb {
		spike = f.spikeDur
		f.stats.Spikes++
	}
	if prob > 0 && f.rng.Float64() < prob {
		if f.maxConsecutive > 0 && f.consecutive >= f.maxConsecutive {
			f.consecutive = 0
			return false, spike
		}
		f.consecutive++
		*counter++
		return true, spike
	}
	f.consecutive = 0
	return false, spike
}

func (f *Flaky) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if f.Sleep != nil {
		f.Sleep(d)
		return
	}
	time.Sleep(d)
}

// ReadBlock implements Device with pre-delegation fault injection.
func (f *Flaky) ReadBlock(idx int, dst []byte) error {
	fail, spike := f.inject(f.readErrProb, &f.stats.ReadFaults)
	f.sleep(spike)
	if fail {
		return ErrTransient
	}
	return f.Device.ReadBlock(idx, dst)
}

// ReadValidated is ReadBlock's injection in front of a validated read.
func (f *Flaky) ReadValidated(idx int, dst []byte, valid func([]byte) bool) error {
	fail, spike := f.inject(f.readErrProb, &f.stats.ReadFaults)
	f.sleep(spike)
	if fail {
		return ErrTransient
	}
	return ReadValidated(f.Device, idx, dst, valid)
}

// AppendBlock implements Device with pre-delegation fault injection.
func (f *Flaky) AppendBlock(data []byte) (int, error) {
	fail, spike := f.inject(f.appendErrProb, &f.stats.AppendFaults)
	f.sleep(spike)
	if fail {
		return -1, ErrTransient
	}
	return f.Device.AppendBlock(data)
}

// WriteAt implements Device with pre-delegation fault injection.
func (f *Flaky) WriteAt(idx int, data []byte) error {
	fail, spike := f.inject(f.appendErrProb, &f.stats.AppendFaults)
	f.sleep(spike)
	if fail {
		return ErrTransient
	}
	return f.Device.WriteAt(idx, data)
}
