// Package flash simulates the NAND flash module of the smart-storage device.
// SST files live here as page-aligned blobs. Reads really return the stored
// bytes and charge virtual time to the reading engine's timeline at that
// engine's flash rates, so the same physical read is cheap for the on-device
// NDP engine (high internal bandwidth, no interconnect) and expensive for the
// host path (external bandwidth, protocol/stack overhead) — the asymmetry all
// of NDP rests on.
package flash

import (
	"errors"
	"fmt"
	"sync"

	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

// FileID identifies one stored blob (one SST file).
type FileID uint64

// Typed flash errors, errors.Is-able through the fmt.Errorf wrapping at the
// return sites.
var (
	// ErrNotExist is returned for reads of deleted or never-written files.
	ErrNotExist = errors.New("flash: file does not exist")
	// ErrOutOfBounds is returned for reads past a file's end.
	ErrOutOfBounds = errors.New("flash: read out of bounds")
	// ErrCapacity is returned when a write would exceed the configured
	// capacity.
	ErrCapacity = errors.New("flash: capacity exceeded")
)

// Faults optionally injects read failures into the flash path (implemented
// by fault.Injector). The hook fires after the read's virtual time has been
// charged: a failed read still occupied the flash channel.
type Faults interface {
	ReadFault(id FileID, off, length int64) error
}

// Stats counts physical flash activity.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	PageReads    int64
	RandomReads  int64
	FilesLive    int
}

// Flash is the simulated flash module.
type Flash struct {
	mu        sync.RWMutex
	pageBytes int64
	capacity  int64
	used      int64             // guarded by mu
	next      FileID            // guarded by mu
	files     map[FileID][]byte // guarded by mu
	stats     Stats             // guarded by mu
}

// New creates a flash module with the model's page size and a capacity in
// bytes (0 means unbounded).
func New(m hw.Model, capacity int64) *Flash {
	return &Flash{
		pageBytes: m.FlashPageBytes,
		capacity:  capacity,
		files:     make(map[FileID][]byte),
	}
}

// Used reports the page-aligned bytes currently occupied.
func (f *Flash) Used() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.used
}

// Stats returns a snapshot of the activity counters.
func (f *Flash) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := f.stats
	s.FilesLive = len(f.files)
	return s
}

func (f *Flash) align(n int64) int64 {
	if n%f.pageBytes == 0 {
		return n
	}
	return (n/f.pageBytes + 1) * f.pageBytes
}

// WriteFile stores data as a new file and returns its ID. The write is
// charged to tl (if non-nil) at the writing engine's flash streaming rate;
// flash writes are roughly 2.5× slower than reads on the simulated MLC part.
//
// The flash takes ownership of data: it becomes the file, with no copy, and
// the caller must not modify it afterwards (reads hand out slices of it).
func (f *Flash) WriteFile(data []byte, tl *vclock.Timeline, r hw.Rates) (FileID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sz := f.align(int64(len(data)))
	if f.capacity > 0 && f.used+sz > f.capacity {
		return 0, fmt.Errorf("%w (%d used + %d > %d)", ErrCapacity, f.used, sz, f.capacity)
	}
	f.next++
	id := f.next
	f.files[id] = data
	f.used += sz
	f.stats.BytesWritten += int64(len(data))
	if tl != nil {
		tl.Charge(hw.CatFlashLoad, vclock.Duration(float64(len(data))*r.FlashNsPerByte*2.5))
	}
	return id, nil
}

// DeleteFile removes a file (e.g. after compaction).
func (f *Flash) DeleteFile(id FileID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if data, ok := f.files[id]; ok {
		f.used -= f.align(int64(len(data)))
		delete(f.files, id)
	}
}

// Size reports the byte length of a file, or -1 if it does not exist.
func (f *Flash) Size(id FileID) int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if data, ok := f.files[id]; ok {
		return int64(len(data))
	}
	return -1
}

// ReadAt returns length bytes of file id starting at off and charges the read
// to tl at rates r: one random page seek plus streaming for the pages
// touched. The returned slice aliases the stored blob and must be treated as
// read-only. A non-nil inj may turn the read into an injected failure after
// the time is charged.
func (f *Flash) ReadAt(id FileID, off, length int64, tl *vclock.Timeline, r hw.Rates, inj Faults) ([]byte, error) {
	return f.read(id, off, length, tl, r, false, inj)
}

// ReadAtSeq is ReadAt for sequential continuation reads: the flash channel
// pipeline hides the page latency behind the previous transfer, so only
// streaming bandwidth is charged.
func (f *Flash) ReadAtSeq(id FileID, off, length int64, tl *vclock.Timeline, r hw.Rates, inj Faults) ([]byte, error) {
	return f.read(id, off, length, tl, r, true, inj)
}

func (f *Flash) read(id FileID, off, length int64, tl *vclock.Timeline, r hw.Rates, sequential bool, inj Faults) ([]byte, error) {
	f.mu.RLock()
	data, ok := f.files[id]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: file %d", ErrNotExist, id)
	}
	if off < 0 || off+length > int64(len(data)) {
		return nil, fmt.Errorf("%w: [%d,%d) of file %d (%d bytes)", ErrOutOfBounds, off, off+length, id, len(data))
	}
	firstPage := off / f.pageBytes
	lastPage := (off + length - 1) / f.pageBytes
	if length == 0 {
		lastPage = firstPage
	}
	pages := lastPage - firstPage + 1

	f.mu.Lock()
	f.stats.BytesRead += length
	f.stats.PageReads += pages
	if !sequential {
		f.stats.RandomReads++
	}
	f.mu.Unlock()

	if tl != nil {
		// Random accesses pay one page latency and the full page span;
		// sequential continuation reads are coalesced by the channel
		// pipeline and pay only the actual bytes.
		if sequential {
			r.FlashRead(tl, length, 0)
		} else {
			r.FlashRead(tl, pages*f.pageBytes, 1)
		}
	}
	if inj != nil {
		// The fault fires after the charge: an uncorrectable read still
		// occupied the channel for its full span before ECC gave up.
		if err := inj.ReadFault(id, off, length); err != nil {
			return nil, err
		}
	}
	return data[off : off+length], nil
}
