package lsm

import (
	"bytes"
	"testing"
)

func TestViewIsolatedFromLaterWrites(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	load(t, tr, entriesOf(span(0, 500, 1), nil))
	v := tr.View()

	// Concurrent modifications after the snapshot (update-aware NDP: the
	// device must not see them), one load: C1 stays below MaxL1Files, so no
	// compaction retires an SST the view holds.
	load(t, tr, []Entry{{Key: key(100), Value: []byte("mutated")}, {Key: key(200), Tombstone: true}, {Key: key(9999), Value: []byte("new")}})

	got, ok, err := v.Get(key(100), Access{})
	if err != nil || !ok || !bytes.Equal(got, val(100)) {
		t.Fatalf("view saw the mutation: %q %v %v", got, ok, err)
	}
	if _, ok, _ := v.Get(key(9999), Access{}); ok {
		t.Fatal("view saw a post-snapshot insert")
	}
	if got, ok, _ := v.Get(key(200), Access{}); !ok || !bytes.Equal(got, val(200)) {
		t.Fatal("view saw a post-snapshot delete")
	}
	// The live tree sees everything.
	if got, _, _ := tr.Get(key(100), Access{}); !bytes.Equal(got, []byte("mutated")) {
		t.Fatal("live tree lost the mutation")
	}

	// View scans match the snapshot state.
	n := 0
	for it := viewScan(v, nil, nil, Access{}); it.Valid(); it.Next() {
		e := it.Entry()
		if bytes.Equal(e.Key, key(9999)) {
			t.Fatal("view scan surfaced a post-snapshot key")
		}
		if bytes.Equal(e.Key, key(100)) && !bytes.Equal(e.Value, val(100)) {
			t.Fatal("view scan surfaced a post-snapshot value")
		}
		n++
	}
	if n != 500 {
		t.Fatalf("view scan found %d keys, want 500", n)
	}
}

func TestViewScanBoundsAndOrder(t *testing.T) {
	fl := testFlash()
	tr := smallTree(fl)
	load(t, tr, entriesOf(span(0, 1000, 1), nil))
	v := tr.View()
	var prev []byte
	n := 0
	for it := viewScan(v, key(123), key(456), Access{}); it.Valid(); it.Next() {
		k := it.Entry().Key
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatal("view scan out of order")
		}
		prev = append(prev[:0], k...)
		n++
	}
	if n != 456-123 {
		t.Fatalf("view scan found %d keys", n)
	}
}

// viewScan iterates [lo, hi) of v on a new TreeIter.
func viewScan(v *View, lo, hi []byte, ac Access) *TreeIter {
	it := &TreeIter{}
	v.ScanInto(it, lo, hi, ac)
	return it
}
