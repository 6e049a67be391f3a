package flash

import (
	"bytes"
	"errors"
	"testing"

	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

func blob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := New(hw.Cosmos(), 0)
	data := blob(100_000)
	id, err := f.WriteFile(data, nil, hw.Rates{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAt(id, 0, int64(len(data)), nil, hw.Rates{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	part, err := f.ReadAt(id, 5000, 1234, nil, hw.Rates{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, data[5000:6234]) {
		t.Fatal("partial read mismatch")
	}
}

func TestReadBounds(t *testing.T) {
	f := New(hw.Cosmos(), 0)
	id, _ := f.WriteFile(blob(1000), nil, hw.Rates{})
	if _, err := f.ReadAt(id, 900, 200, nil, hw.Rates{}, nil); err == nil {
		t.Fatal("out-of-bounds read must fail")
	}
	if _, err := f.ReadAt(id, -1, 10, nil, hw.Rates{}, nil); err == nil {
		t.Fatal("negative offset must fail")
	}
	if _, err := f.ReadAt(999, 0, 10, nil, hw.Rates{}, nil); err == nil {
		t.Fatal("missing file must fail")
	}
	if f.Size(999) != -1 {
		t.Fatal("Size of missing file must be -1")
	}
}

// TestTypedErrors is the regression test for reads of deleted/unknown files:
// they must fail with the typed ErrNotExist sentinel (not zero bytes, not an
// anonymous error), and bounds/capacity failures carry their own sentinels.
func TestTypedErrors(t *testing.T) {
	f := New(hw.Cosmos(), 2*hw.Cosmos().FlashPageBytes)
	if _, err := f.ReadAt(42, 0, 10, nil, hw.Rates{}, nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read of unknown file: got %v, want ErrNotExist", err)
	}
	id, err := f.WriteFile(blob(1000), nil, hw.Rates{})
	if err != nil {
		t.Fatal(err)
	}
	f.DeleteFile(id)
	if _, err := f.ReadAt(id, 0, 10, nil, hw.Rates{}, nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read of deleted file: got %v, want ErrNotExist", err)
	}
	if _, err := f.ReadAt(id, 0, 1000, nil, hw.Rates{}, nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("whole-file read of deleted file: got %v, want ErrNotExist", err)
	}
	id2, _ := f.WriteFile(blob(1000), nil, hw.Rates{})
	if _, err := f.ReadAt(id2, 900, 200, nil, hw.Rates{}, nil); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("out-of-bounds read: got %v, want ErrOutOfBounds", err)
	}
	if _, err := f.WriteFile(blob(int(3*hw.Cosmos().FlashPageBytes)), nil, hw.Rates{}); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-capacity write: got %v, want ErrCapacity", err)
	}
}

// failEveryRead is a test double for the Faults hook.
type failEveryRead struct {
	err   error
	calls int
}

func (f *failEveryRead) ReadFault(id FileID, off, length int64) error {
	f.calls++
	return f.err
}

func TestInjectedReadFaultFiresAfterCharge(t *testing.T) {
	m := hw.Cosmos()
	f := New(m, 0)
	id, _ := f.WriteFile(blob(int(2*m.FlashPageBytes)), nil, hw.Rates{})
	tl := vclock.NewTimeline("r")
	inj := &failEveryRead{err: errors.New("boom")}
	_, err := f.ReadAt(id, 0, 4096, tl, hw.DeviceRates(m), inj)
	if !errors.Is(err, inj.err) {
		t.Fatalf("injected fault not surfaced: %v", err)
	}
	if inj.calls != 1 {
		t.Fatalf("hook called %d times, want 1", inj.calls)
	}
	if tl.Now() <= 0 {
		t.Fatal("failed read must still charge the flash channel time")
	}
	// A nil hook or a benign hook leaves the read untouched.
	if _, err := f.ReadAt(id, 0, 4096, tl, hw.DeviceRates(m), &failEveryRead{}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	m := hw.Cosmos()
	f := New(m, 4*m.FlashPageBytes)
	if _, err := f.WriteFile(blob(int(3*m.FlashPageBytes)), nil, hw.Rates{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteFile(blob(int(2*m.FlashPageBytes)), nil, hw.Rates{}); err == nil {
		t.Fatal("write beyond capacity must fail")
	}
}

func TestDeleteReclaimsSpace(t *testing.T) {
	f := New(hw.Cosmos(), 0)
	id, _ := f.WriteFile(blob(100_000), nil, hw.Rates{})
	used := f.Used()
	if used <= 0 {
		t.Fatal("Used not tracking")
	}
	f.DeleteFile(id)
	if f.Used() != 0 {
		t.Fatalf("Used = %d after delete", f.Used())
	}
	// Double delete is harmless.
	f.DeleteFile(id)
}

func TestUsedIsPageAligned(t *testing.T) {
	m := hw.Cosmos()
	f := New(m, 0)
	f.WriteFile(blob(1), nil, hw.Rates{})
	if f.Used() != m.FlashPageBytes {
		t.Fatalf("1-byte file occupies %d, want one page (%d)", f.Used(), m.FlashPageBytes)
	}
}

func TestChargingRandomVsSequential(t *testing.T) {
	m := hw.Cosmos()
	f := New(m, 0)
	id, _ := f.WriteFile(blob(int(4*m.FlashPageBytes)), nil, hw.Rates{})
	r := hw.DeviceRates(m)

	rnd := vclock.NewTimeline("r")
	seq := vclock.NewTimeline("s")
	if _, err := f.ReadAt(id, 0, 4096, rnd, r, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAtSeq(id, 0, 4096, seq, r, nil); err != nil {
		t.Fatal(err)
	}
	if seq.Now() >= rnd.Now() {
		t.Fatalf("sequential read (%v) must be cheaper than random (%v)", seq.Now(), rnd.Now())
	}
	st := f.Stats()
	if st.RandomReads != 1 {
		t.Fatalf("RandomReads = %d, want 1 (sequential reads excluded)", st.RandomReads)
	}
	if st.BytesRead != 8192 {
		t.Fatalf("BytesRead = %d", st.BytesRead)
	}
}

func TestDeviceReadsCheaperThanHost(t *testing.T) {
	m := hw.Cosmos()
	f := New(m, 0)
	id, _ := f.WriteFile(blob(1<<20), nil, hw.Rates{})
	host := vclock.NewTimeline("h")
	dev := vclock.NewTimeline("d")
	f.ReadAt(id, 0, 1<<20, host, hw.HostRates(m), nil)
	f.ReadAt(id, 0, 1<<20, dev, hw.DeviceRates(m), nil)
	if dev.Now() >= host.Now() {
		t.Fatal("device-internal read must be cheaper than the host path")
	}
}

func TestWriteCharges(t *testing.T) {
	m := hw.Cosmos()
	f := New(m, 0)
	tl := vclock.NewTimeline("w")
	f.WriteFile(blob(1<<20), tl, hw.DeviceRates(m))
	if tl.Now() <= 0 {
		t.Fatal("charged write booked nothing")
	}
	if f.Stats().BytesWritten != 1<<20 {
		t.Fatalf("BytesWritten = %d", f.Stats().BytesWritten)
	}
}
