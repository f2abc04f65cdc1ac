// Package faults is the unified failure model of the Clio reproduction: a
// fault classification shared by every layer (device, core service, wire
// protocol, server, client), a bounded retry policy with exponential backoff
// and deterministic jitter, and a registry of named fault points — errors,
// crashes and delays — that tests use to drive each layer through its
// degradation paths.
//
// The paper (§2.3) distinguishes failures the service masks (transient
// device errors, damaged blocks that are fenced and skipped) from failures
// it merely survives (a torn tail after a crash). This package names those
// classes so each layer can decide mechanically: Transient faults are
// retried, Permanent faults are routed around (invalidate and relocate,
// §2.3.2), and Torn losses are skipped by readers.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Class partitions failures by the correct reaction to them.
type Class uint8

const (
	// Unknown is the class of nil and unclassifiable errors.
	Unknown Class = iota
	// Transient faults succeed on retry: an injected or environmental
	// per-operation device error, a latency spike surfacing as a timeout, a
	// reset or half-open connection. Bounded retry with backoff masks them.
	Transient
	// Permanent faults never succeed on retry: damaged media, write-once
	// violations, malformed frames. The layer must route around them
	// (invalidate and relocate past a bad block, fail over to a replica) or
	// surface them.
	Permanent
	// Torn marks data lost at a boundary — an entry chain that runs off the
	// written end after a crash, a partial frame. Readers skip torn data;
	// there is nothing to retry or repair.
	Torn
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Torn:
		return "torn"
	default:
		return "unknown"
	}
}

// classified is an error with an explicit fault class. It is both the
// sentinel type returned by New and the wrapper returned by WithClass.
type classified struct {
	class Class
	err   error
}

func (e *classified) Error() string     { return e.err.Error() }
func (e *classified) Unwrap() error     { return e.err }
func (e *classified) FaultClass() Class { return e.class }

// New returns a sentinel error carrying an explicit fault class. Use it to
// declare package-level errors whose class is intrinsic (for example a
// device's transient-fault error).
func New(class Class, msg string) error {
	return &classified{class: class, err: errors.New(msg)}
}

// WithClass wraps err with an explicit fault class, overriding whatever
// Classify would infer. errors.Is/As still see the underlying error.
func WithClass(err error, class Class) error {
	if err == nil {
		return nil
	}
	return &classified{class: class, err: err}
}

// classer is implemented by errors that know their own class.
type classer interface{ FaultClass() Class }

// Classify maps an error to its fault class. Explicitly classified errors
// (New, WithClass) take precedence; network timeouts, resets, EOFs and
// closed-connection errors are Transient (a reconnect or retry can mask
// them); context cancellation is Permanent (the caller gave up; retrying
// would override it); everything else is Permanent.
func Classify(err error) Class {
	if err == nil {
		return Unknown
	}
	var c classer
	if errors.As(err, &c) {
		return c.FaultClass()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Permanent
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return Transient
	}
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE):
		return Transient
	}
	return Permanent
}

// RetryPolicy is a bounded retry schedule with exponential backoff and
// deterministic jitter. The zero value is usable: withDefaults fills in the
// device-retry defaults.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of attempts (first try included).
	// Values < 1 mean the default (4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor (default 2).
	Multiplier float64
	// Jitter is the fraction of the computed delay randomized symmetrically
	// around it (0.2 → ±20%). Jitter is deterministic in (Seed, attempt).
	Jitter float64
	// FullJitter, when true, replaces the symmetric jitter with the
	// "full jitter" scheme: the delay is drawn uniformly from [0, d), where
	// d is the capped exponential backoff. Clients of a shared service
	// should prefer it — after a common failure (a dead cluster, a leader
	// crash) symmetric jitter keeps every client's retry clock in near
	// lockstep, while full jitter spreads the reconnect storm across the
	// whole window. Jitter is ignored when FullJitter is set; give each
	// client its own Seed or the spread collapses back to lockstep.
	FullJitter bool
	// Seed makes the jitter sequence reproducible; 0 uses a fixed seed.
	Seed int64
	// Sleep is called to wait between attempts; nil means time.Sleep. Tests
	// substitute a virtual sleep.
	Sleep func(time.Duration)
}

// DefaultDevicePolicy is the retry schedule for device operations: a few
// quick attempts, microsecond-scale backoff (device retries are cheap and
// the caller holds the service lock).
func DefaultDevicePolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 200 * time.Microsecond,
		MaxDelay: 10 * time.Millisecond, Multiplier: 4, Jitter: 0.2}
}

// DefaultNetPolicy is the retry schedule for connection-level operations:
// more attempts, millisecond-scale backoff so a restarting server has time
// to come back.
func DefaultNetPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond,
		MaxDelay: 500 * time.Millisecond, Multiplier: 2, Jitter: 0.3}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Microsecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 10 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Backoff returns the delay before the given attempt (attempt 1 is the
// first retry). The jitter is a deterministic function of (Seed, attempt) so
// replayed schedules are reproducible.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.FullJitter {
		d *= jitterFrac(p.Seed, attempt)
	} else if p.Jitter > 0 {
		d += d * p.Jitter * (2*jitterFrac(p.Seed, attempt) - 1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// jitterFrac maps (seed, attempt) to a deterministic, well-mixed fraction
// in [0,1) via splitmix64.
func jitterFrac(seed int64, attempt int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(attempt)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Do runs op, retrying while the returned error classifies as Transient, up
// to MaxAttempts total attempts with Backoff sleeps between them. The last
// error is returned when attempts are exhausted; Permanent and Torn errors
// return immediately.
func (p RetryPolicy) Do(op func() error) error {
	return p.DoCtx(context.Background(), op)
}

// DoCtx is Do with cancellation between attempts (a running op is not
// interrupted — Clio device operations are short).
func (p RetryPolicy) DoCtx(ctx context.Context, op func() error) error {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil || Classify(err) != Transient {
			return err
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("faults: %d attempts exhausted: %w", attempt, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		p.Sleep(p.Backoff(attempt))
	}
}

// Crash is the value panicked by a crash point: tests recover it to
// simulate a process dying at a precise named place.
type Crash struct{ Point string }

// Error makes Crash usable as an error value too.
func (c Crash) Error() string { return "faults: crash injected at " + c.Point }

// Registry holds named fault points, and is the only way a fault enters the
// system: an error, a crash or a delay. Code under test calls Fire(name) at
// instrumented places; tests Arm points with a Fault. A nil *Registry is
// valid and fires nothing, so production paths carry no configuration.
//
// Points instrumented in this repository. The dev.* points are a device
// wrapped as wodev.Inject(dev, reg, "dev"); another name gives the same
// three points under that name. core.TestFaultPointCensus reaches every
// point listed here, and no other.
//
//	dev.read               – before every device ReadBlock
//	dev.write              – before every device AppendBlock and WriteAt
//	dev.invalidate         – before every device Invalidate
//	core.read.block        – before every device block read
//	core.seal.write        – before every tail-block device write
//	core.nvram.store       – before every NVRAM tail store
//	core.compact.collected – compactor: a volume's live entries are collected
//	core.compact.forced    – compactor: their copies are forced to the log
//	core.compact.committed – compactor: the sidecar records the copies
//	core.compact.archived  – compactor: the volume image is in the cold tier
//	core.compact.demoted   – compactor: the demoted volume is released
type Registry struct {
	mu     sync.Mutex
	seed   int64
	points map[string]*point
}

// Fault is what an armed point does when a hit fires. The zero Fault is
// disarmed: Arm(name, Fault{}) turns a point off and keeps its counts.
type Fault struct {
	// Err is what Fire returns.
	Err error
	// Crash makes Fire panic with a Crash naming the point instead.
	Crash bool
	// Delay is slept before Fire returns or panics; with neither Err nor
	// Crash the point only slows what it guards.
	Delay time.Duration
	// Times bounds the firings; 0 is no bound.
	Times int
	// Prob is the chance that a hit fires, drawn from the registry's seed,
	// the point's name and its hit count, so a seed replays the same
	// firings; 0 means every hit.
	Prob float64
	// MaxRun lets one hit through after that many consecutive firings, so a
	// retry policy with more attempts always gets through; 0 is no bound.
	MaxRun int
}

type point struct {
	Fault
	salt        int64 // the point's draw stream: seed mixed with its name
	spent, run  int   // firings since Arm, and consecutive ones
	hits, fired int64
}

// NewRegistry returns an empty registry whose Prob draws follow seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, points: make(map[string]*point)}
}

// Arm sets what the named point does from its next hit on, and restarts
// its Times budget and run.
func (r *Registry) Arm(name string, f Fault) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.point(name)
	p.Fault, p.spent, p.run = f, 0, 0
}

// point returns the named point, creating it; r.mu held.
func (r *Registry) point(name string) *point {
	p := r.points[name]
	if p == nil {
		salt := uint64(r.seed) // FNV-1a over the name
		for i := 0; i < len(name); i++ {
			salt = (salt ^ uint64(name[i])) * 0x100000001b3
		}
		p = &point{salt: int64(salt)}
		r.points[name] = p
	}
	return p
}

// Hits returns how many times the named point has been reached (armed or
// not).
func (r *Registry) Hits(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.points[name]; p != nil {
		return p.hits
	}
	return 0
}

// Fired returns how many times the named point actually injected a fault.
func (r *Registry) Fired(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.points[name]; p != nil {
		return p.fired
	}
	return 0
}

// PointStat is one fault point's counters, as reported by Points.
type PointStat struct {
	Name  string `json:"name"`
	Hits  int64  `json:"hits"`
	Fired int64  `json:"fired"`
}

// Points returns every known fault point's counters sorted by name. A nil
// registry returns nil, so observability exports need no fault
// configuration to be safe.
func (r *Registry) Points() []PointStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]PointStat, 0, len(r.points))
	for name, p := range r.points {
		out = append(out, PointStat{Name: name, Hits: p.hits, Fired: p.fired})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fire is called at an instrumented site and counts a hit. When the armed
// Fault fires it sleeps its Delay, then panics at a crash point or returns
// its Err; otherwise, and for a nil receiver, it returns nil.
func (r *Registry) Fire(name string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	p := r.point(name)
	p.hits++
	f := p.Fault
	fire := (f.Err != nil || f.Crash || f.Delay > 0) &&
		(f.Times <= 0 || p.spent < f.Times) &&
		(f.Prob <= 0 || jitterFrac(p.salt, int(p.hits)) < f.Prob) &&
		(f.MaxRun <= 0 || p.run < f.MaxRun)
	if !fire {
		p.run = 0
		r.mu.Unlock()
		return nil
	}
	p.spent++
	p.run++
	p.fired++
	r.mu.Unlock()
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Crash {
		panic(Crash{Point: name})
	}
	return f.Err
}
