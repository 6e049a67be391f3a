// Package device is a fixture stub of the real internal/device package:
// just the Batch type and a Device whose Produce streams batches through an
// error-returning emit callback — the surface chargecheck recognizes as the
// device → host batch emission channel. This stub's Produce does not charge, so
// it carries no charges fact; fixture callers must account for the stream
// themselves (the real device charges internally).
package device

// Batch is one emitted result batch.
type Batch struct {
	Rows int
}

// Device is a minimal smart-storage device.
type Device struct {
	ID int
}

// Produce streams n batches through emit, propagating the first emit error.
func (d *Device) Produce(n int, emit func(Batch) error) error {
	for i := 0; i < n; i++ {
		if err := emit(Batch{Rows: i}); err != nil {
			return err
		}
	}
	return nil
}
