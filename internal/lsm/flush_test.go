package lsm_test

import (
	"fmt"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
)

// TestFlushKeepsNoMemTableReachable pins that a flushed memtable is garbage:
// after Flush — forced, and the rotations a small memtable budget triggers —
// no slot of the immutable list, vacated ones included, still holds one.
func TestFlushKeepsNoMemTableReachable(t *testing.T) {
	tr := lsm.NewTree(flash.New(hw.Cosmos(), 0), lsm.Config{MemTableBytes: 4 << 10, MaxL1Files: 4, LevelRatio: 4, BaseLevelBytes: 64 << 10})
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	slots := lsm.ImmSlots(tr)
	if len(slots) == 0 {
		t.Fatal("no memtable was ever rotated out: raise the write volume")
	}
	for i, m := range slots {
		if m != nil {
			t.Errorf("immutable slot %d of %d still holds a flushed memtable of %d entries", i, len(slots), m.Len())
		}
	}
}
