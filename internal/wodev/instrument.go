package wodev

import (
	"time"

	"clio/internal/obs"
)

// Instrumented wraps a Device and records wall-clock latency histograms for
// reads, appends and invalidations. It composes with the other wrappers
// (Flaky, Latent, Timed, Mirror) like they compose with each other; with
// Latent underneath, the histograms show the injected real latency. The
// histograms are plain obs values — nil histograms (an Instrumented zero
// value) record nothing, so the wrapper itself never needs a registry.
type Instrumented struct {
	Device
	ReadLatency       *obs.Histogram
	AppendLatency     *obs.Histogram
	InvalidateLatency *obs.Histogram
}

// NewInstrumented wraps dev, registering per-operation latency histograms
// under clio_wodev_{read,append,invalidate}_seconds in reg.
func NewInstrumented(dev Device, reg *obs.Registry) *Instrumented {
	return &Instrumented{
		Device: dev,
		ReadLatency: reg.Histogram("clio_wodev_read_seconds",
			"Wall-clock latency of device block reads.", nil),
		AppendLatency: reg.Histogram("clio_wodev_append_seconds",
			"Wall-clock latency of device block appends.", nil),
		InvalidateLatency: reg.Histogram("clio_wodev_invalidate_seconds",
			"Wall-clock latency of device block invalidations.", nil),
	}
}

// ReadBlock times the wrapped read.
func (d *Instrumented) ReadBlock(idx int, dst []byte) error {
	start := time.Now()
	err := d.Device.ReadBlock(idx, dst)
	d.ReadLatency.ObserveSince(start)
	return err
}

// ReadValidated times the wrapped validated read, preserving Mirror
// failover through the wrapper.
func (d *Instrumented) ReadValidated(idx int, dst []byte, valid func([]byte) bool) error {
	start := time.Now()
	defer d.ReadLatency.ObserveSince(start)
	return ReadValidated(d.Device, idx, dst, valid)
}

// AppendBlock times the wrapped append.
func (d *Instrumented) AppendBlock(data []byte) (int, error) {
	start := time.Now()
	idx, err := d.Device.AppendBlock(data)
	d.AppendLatency.ObserveSince(start)
	return idx, err
}

// WriteAt times the wrapped positioned write.
func (d *Instrumented) WriteAt(idx int, data []byte) error {
	start := time.Now()
	err := d.Device.WriteAt(idx, data)
	d.AppendLatency.ObserveSince(start)
	return err
}

// Invalidate times the wrapped invalidation.
func (d *Instrumented) Invalidate(idx int) error {
	start := time.Now()
	err := d.Device.Invalidate(idx)
	d.InvalidateLatency.ObserveSince(start)
	return err
}
