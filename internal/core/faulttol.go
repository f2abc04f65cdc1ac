package core

import (
	"bytes"
	"errors"
	"fmt"

	"clio/internal/blockfmt"
	"clio/internal/faults"
	"clio/internal/volume"
	"clio/internal/wodev"
)

// Named fault points instrumented in this package (armed through
// Options.Faults, see faults.Registry):
const (
	// FaultReadBlock fires before every device block read.
	FaultReadBlock = "core.read.block"
	// FaultSealWrite fires before every tail-block device write.
	FaultSealWrite = "core.seal.write"
	// FaultNVRAMStore fires before every NVRAM tail store.
	FaultNVRAMStore = "core.nvram.store"
	// FaultCompact prefixes the compactor's stage boundaries, fired as each
	// stage completes: FaultCompact + "collected", "forced", "committed",
	// "archived" and "demoted".
	FaultCompact = "core.compact."
)

// DegradedError reports that an operation COMPLETED — the entry is durable
// and readable — but only by routing around failures: one or more target
// blocks could not be written (damaged media, or transient faults that
// outlasted the retry budget) and were invalidated and skipped (§2.3.2).
// Callers that care can log it or alert on it; callers that only care about
// durability may treat it as success.
type DegradedError struct {
	// Timestamp is the completed entry's server timestamp (valid — the
	// write went through).
	Timestamp int64
	// Relocated lists the global block indices that were invalidated and
	// skipped while completing the operation.
	Relocated []int
	// Cause is the last device error that forced a relocation.
	Cause error
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("clio: write completed degraded (relocated past blocks %v): %v",
		e.Relocated, e.Cause)
}

// Unwrap exposes the device error that forced the relocation.
func (e *DegradedError) Unwrap() error { return e.Cause }

// IsDegraded reports whether err is a degraded-completion notice (the
// operation succeeded). A nil err is answered before errors.As, whose
// target would escape: a successful append allocates nothing here.
func IsDegraded(err error) bool {
	if err == nil {
		return false
	}
	var d *DegradedError
	return errors.As(err, &d)
}

// takeDegradedLocked drains the blocks relocated past since the last
// operation completed into a notice for the one completing now (nil when
// there are none); s.mu held. A slide joins the list wherever it happens —
// inside the operation when the seal is inline, on the background sealer
// after the ack when it is pipelined — and is reported by whichever
// operation completes next (§2.3.2's notice, deferred if need be).
func (s *Service) takeDegradedLocked() *DegradedError {
	if len(s.degraded) == 0 {
		return nil
	}
	d := &DegradedError{Relocated: s.degraded, Cause: s.degradedCause}
	s.degraded, s.degradedCause = nil, nil
	return d
}

// at returns the notice for an operation that completed at ts — every
// request of a force batch gets its own — or nil when d is.
func (d *DegradedError) at(ts int64) error {
	if d == nil {
		return nil
	}
	return &DegradedError{Timestamp: ts, Relocated: append([]int(nil), d.Relocated...), Cause: d.Cause}
}

// readDeviceBlock reads devIdx from the volume's device with the service
// retry policy masking transient faults, and reports an image that fails
// blockfmt.Validate — a block damaged after it was written — as
// wodev.ErrCorrupt, so a damaged image never enters the block cache. It
// touches only immutable/internally synchronized state, so the lock-free
// read path may call it.
func (s *Service) readDeviceBlock(v *volume.Volume, devIdx int, buf []byte) error {
	err := s.retry.Do(func() error {
		if ferr := s.opt.Faults.Fire(FaultReadBlock); ferr != nil {
			return ferr
		}
		return v.Dev.ReadBlock(devIdx, buf)
	})
	if err == nil && !blockfmt.Validate(buf) {
		return wodev.ErrCorrupt
	}
	return err
}

// writeTailBlockLocked writes img at devIdx with the service retry policy.
// If a retried write reports ErrRewrite, the block is read back and compared
// to img: an earlier attempt that succeeded after its acknowledgement was
// lost must count as success, not a write-once violation.
func (s *Service) writeTailBlockLocked(v *volume.Volume, devIdx int, img []byte) error {
	err := s.retry.Do(func() error {
		if ferr := s.opt.Faults.Fire(FaultSealWrite); ferr != nil {
			return ferr
		}
		return v.Dev.WriteAt(devIdx, img)
	})
	if errors.Is(err, wodev.ErrRewrite) {
		buf := make([]byte, len(img))
		if rerr := v.Dev.ReadBlock(devIdx, buf); rerr == nil && bytes.Equal(buf, img) {
			return nil
		}
	}
	return err
}

// nvramStoreLocked runs one NVRAM write — the tail image or a sealed one,
// both durability barriers behind the same fault point — with transient
// faults retried.
func (s *Service) nvramStoreLocked(store func() error) error {
	return s.retry.Do(func() error {
		if ferr := s.opt.Faults.Fire(FaultNVRAMStore); ferr != nil {
			return ferr
		}
		return store()
	})
}

// transientExhausted reports whether err is a transient fault that outlasted
// the retry budget — treated like damaged media at the seal site: invalidate
// the target block and relocate (§2.3.2).
func transientExhausted(err error) bool {
	return err != nil && faults.Classify(err) == faults.Transient
}
