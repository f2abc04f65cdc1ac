package wodev

import "clio/internal/faults"

// Inject wraps dev so that every operation first fires a point of reg: the
// one way a test makes a device fail, crash or slow down. A point that fires
// stands in for the operation — the device never saw the call — so an
// injected error is safe to retry: a retried append cannot double-write
// (DESIGN.md's failure model). The points are name+".read" (ReadBlock),
// name+".write" (AppendBlock, WriteAt) and name+".invalidate"; what each
// does is armed on reg with a faults.Fault.
func Inject(dev Device, reg *faults.Registry, name string) Device {
	return &injected{Device: dev, reg: reg,
		read: name + ".read", write: name + ".write", invalidate: name + ".invalidate"}
}

type injected struct {
	Device
	reg                     *faults.Registry
	read, write, invalidate string
}

// ReadBlock implements Device.
func (d *injected) ReadBlock(idx int, dst []byte) error {
	if err := d.reg.Fire(d.read); err != nil {
		return err
	}
	return d.Device.ReadBlock(idx, dst)
}

// AppendBlock implements Device.
func (d *injected) AppendBlock(data []byte) (int, error) {
	if err := d.reg.Fire(d.write); err != nil {
		return -1, err
	}
	return d.Device.AppendBlock(data)
}

// WriteAt implements Device.
func (d *injected) WriteAt(idx int, data []byte) error {
	if err := d.reg.Fire(d.write); err != nil {
		return err
	}
	return d.Device.WriteAt(idx, data)
}

// Invalidate implements Device.
func (d *injected) Invalidate(idx int) error {
	if err := d.reg.Fire(d.invalidate); err != nil {
		return err
	}
	return d.Device.Invalidate(idx)
}
