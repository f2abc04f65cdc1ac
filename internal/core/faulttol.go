package core

import (
	"bytes"
	"errors"
	"fmt"

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
// operation succeeded).
func IsDegraded(err error) bool {
	var d *DegradedError
	return errors.As(err, &d)
}

// opDegradedReset starts a fresh degradation record for one client
// operation; s.mu held. Relocations performed by the background sealer
// since the last operation are folded in, so a pipelined slide — whose own
// append was acked before the damage was discovered — is still reported to
// a client, on the next completed operation (§2.3.2's notice, deferred).
func (s *Service) opDegradedReset() {
	s.opDegraded = s.opDegraded[:0]
	s.opDegradedCause = nil
	if len(s.pendingDegraded) > 0 {
		s.opDegraded = append(s.opDegraded, s.pendingDegraded...)
		s.opDegradedCause = s.pendingDegradedCause
		s.pendingDegraded = s.pendingDegraded[:0]
		s.pendingDegradedCause = nil
	}
}

// opDegradedErr returns the operation's degraded-completion notice, or nil
// when nothing was relocated; s.mu held.
func (s *Service) opDegradedErr(ts int64) error {
	if len(s.opDegraded) == 0 {
		return nil
	}
	return &DegradedError{
		Timestamp: ts,
		Relocated: append([]int(nil), s.opDegraded...),
		Cause:     s.opDegradedCause,
	}
}

// readDeviceBlock reads devIdx from the volume's device with the service
// retry policy masking transient faults; mirrored devices route around
// silently corrupted replicas via validated reads. It touches only
// immutable/internally synchronized state, so the lock-free read path may
// call it.
func (s *Service) readDeviceBlock(v *volume.Volume, devIdx int, buf []byte, valid func([]byte) bool) error {
	return s.retry.Do(func() error {
		if ferr := s.opt.Faults.Fire(FaultReadBlock); ferr != nil {
			return ferr
		}
		return wodev.ReadValidated(v.Dev, devIdx, buf, valid)
	})
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

// storeNVRAMLocked stages the tail image to NVRAM with transient faults
// retried.
func (s *Service) storeNVRAMLocked(global int, img []byte) error {
	return s.retry.Do(func() error {
		if ferr := s.opt.Faults.Fire(FaultNVRAMStore); ferr != nil {
			return ferr
		}
		return s.opt.NVRAM.Store(global, img)
	})
}

// transientExhausted reports whether err is a transient fault that outlasted
// the retry budget — treated like damaged media at the seal site: invalidate
// the target block and relocate (§2.3.2).
func transientExhausted(err error) bool {
	return err != nil && faults.Classify(err) == faults.Transient
}
