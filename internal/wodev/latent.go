package wodev

import "time"

// Latent wraps a Device with a real per-operation delay, modeling the
// milliseconds-scale access time of the paper's optical write-once media
// (§3.2). Unlike the virtual clock the service charges, which returns
// immediately, Latent actually blocks the calling goroutine — concurrency
// tests and benchmarks use it so device operations create genuine overlap
// windows (a sealing writer really waits while other clients run), which is
// what makes group commit observable.
type Latent struct {
	Device
	// WriteDelay is slept before each AppendBlock/WriteAt/Invalidate.
	WriteDelay time.Duration
	// ReadDelay is slept before each ReadBlock.
	ReadDelay time.Duration
}

// NewLatent wraps dev with the given write and read delays.
func NewLatent(dev Device, writeDelay, readDelay time.Duration) *Latent {
	return &Latent{Device: dev, WriteDelay: writeDelay, ReadDelay: readDelay}
}

// ReadBlock sleeps ReadDelay then delegates.
func (l *Latent) ReadBlock(idx int, dst []byte) error {
	if l.ReadDelay > 0 {
		time.Sleep(l.ReadDelay)
	}
	return l.Device.ReadBlock(idx, dst)
}

// AppendBlock sleeps WriteDelay then delegates.
func (l *Latent) AppendBlock(data []byte) (int, error) {
	if l.WriteDelay > 0 {
		time.Sleep(l.WriteDelay)
	}
	return l.Device.AppendBlock(data)
}

// WriteAt sleeps WriteDelay then delegates.
func (l *Latent) WriteAt(idx int, data []byte) error {
	if l.WriteDelay > 0 {
		time.Sleep(l.WriteDelay)
	}
	return l.Device.WriteAt(idx, data)
}

// Invalidate sleeps WriteDelay then delegates.
func (l *Latent) Invalidate(idx int) error {
	if l.WriteDelay > 0 {
		time.Sleep(l.WriteDelay)
	}
	return l.Device.Invalidate(idx)
}
