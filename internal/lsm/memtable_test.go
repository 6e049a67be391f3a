package lsm

import (
	"bytes"
	"sort"
	"testing"

	"hybridndp/internal/hw"
)

type modelEntry struct {
	value []byte
	tomb  bool
}

// FuzzMemTableMatchesModel drives a memtable and a sorted-map model with the
// same Put/Delete/Get/Iter stream and checks, after every operation, Len and
// the ByteSize rule (len(key)+len(value)+48 per new key, the value-length
// change on an overwrite) and, at the end, the full iteration, the SST
// data-block byte count the memtable keeps, and that an SST streamed from the
// memtable is byte-identical to BuildSST over the model.
//
// ops is a sequence of records [op, klen, key…] — op%4: 0 put, 1 delete, 2
// get, 3 iter from key — where klen%16 key bytes follow; a put carries
// [vlen, value…] after the key, vlen%32 value bytes, or a nil value when vlen
// is 0xff. The seed corpus under testdata/fuzz/FuzzMemTableMatchesModel is
// named after what each entry exercises.
func FuzzMemTableMatchesModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip("operation stream longer than any seed needs")
		}
		m := NewMemTable()
		model := map[string]modelEntry{}
		var size int64
		take := func(n int) []byte {
			n = min(n, len(ops))
			b := ops[:n:n]
			ops = ops[n:]
			return b
		}
		for len(ops) >= 2 {
			op, klen := ops[0]%4, int(ops[1]%16)
			ops = ops[2:]
			k := take(klen)
			switch op {
			case 0, 1:
				var v []byte
				if op == 0 && len(ops) > 0 {
					vlen := ops[0]
					ops = ops[1:]
					if vlen != 0xff {
						v = take(int(vlen % 32))
					}
				}
				if old, ok := model[string(k)]; ok {
					size += int64(len(v)) - int64(len(old.value))
				} else {
					size += int64(len(k)) + int64(len(v)) + 48
				}
				if op == 0 {
					m.Put(k, v)
				} else {
					m.Delete(k)
				}
				model[string(k)] = modelEntry{value: bytes.Clone(v), tomb: op == 1}
			case 2:
				e, ok := m.Get(k)
				want, wantOK := model[string(k)]
				if ok != wantOK || e.Tombstone != want.tomb || !bytes.Equal(e.Value, want.value) || ok && !bytes.Equal(e.Key, k) {
					t.Fatalf("Get(%q) = %q→%q tombstone %v, %v; model %q tombstone %v, %v", k, e.Key, e.Value, e.Tombstone, ok, want.value, want.tomb, wantOK)
				}
			case 3:
				checkIter(t, m, model, k)
			}
			if m.Len() != len(model) || m.ByteSize() != size {
				t.Fatalf("Len %d ByteSize %d; model %d, %d", m.Len(), m.ByteSize(), len(model), size)
			}
		}
		want := checkIter(t, m, model, nil)
		var enc int64
		for _, e := range want {
			enc += encodedLen(len(e.Key), len(e.Value))
		}
		if m.encBytes != enc {
			t.Fatalf("memtable counts %d SST data bytes, its entries encode to %d", m.encBytes, enc)
		}
		if len(want) == 0 {
			return
		}
		fl := testFlash()
		ref, err := BuildSST(fl, want, Access{})
		if err != nil {
			t.Fatal(err)
		}
		w := newSSTWriter(m.Len(), m.encBytes, m.maxKey)
		for it := m.Iter(nil); it.Valid(); it.Next() {
			if err := w.add(it.Entry()); err != nil {
				t.Fatal(err)
			}
		}
		got, err := w.finish(fl, Access{})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := fl.ReadAt(ref.File(), 0, fl.Size(ref.File()), nil, hw.Rates{}, nil)
		b, _ := fl.ReadAt(got.File(), 0, fl.Size(got.File()), nil, hw.Rates{}, nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("SST streamed from the memtable (%d bytes) differs from BuildSST over the model (%d bytes)", len(b), len(a))
		}
	})
}

// checkIter compares m.Iter(start) with the model's entries ≥ start (all of
// them for a nil start), tombstones included, and returns the model's.
func checkIter(t *testing.T, m *MemTable, model map[string]modelEntry, start []byte) []Entry {
	t.Helper()
	var want []Entry
	for k, e := range model {
		if start == nil || k >= string(start) {
			want = append(want, Entry{Key: []byte(k), Value: e.value, Tombstone: e.tomb})
		}
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 })
	i := 0
	for it := m.Iter(start); it.Valid(); it.Next() {
		e := it.Entry()
		if i >= len(want) || !bytes.Equal(e.Key, want[i].Key) || !bytes.Equal(e.Value, want[i].Value) || e.Tombstone != want[i].Tombstone {
			t.Fatalf("Iter(%q) position %d = %q→%q tombstone %v; model has %d entries from there", start, i, e.Key, e.Value, e.Tombstone, len(want))
		}
		if len(e.Value) == 0 && e.Value != nil {
			t.Fatalf("Iter(%q) position %d: empty value is non-nil", start, i)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("Iter(%q) yielded %d entries, model %d", start, i, len(want))
	}
	return want
}

var memSink *MemTable

// TestEmptyMemTableIsFree pins that a memtable allocates nothing but its
// header until the first write, and that reading an empty one allocates no
// arena either: after a bulk load (or a Flush) every tree holds one.
func TestEmptyMemTableIsFree(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { memSink = NewMemTableSeeded(7) }); n != 1 {
		t.Fatalf("NewMemTableSeeded made %v allocations, want 1", n)
	}
	m := NewMemTable()
	if _, ok := m.Get(key(1)); ok || m.Iter(nil).Valid() || m.Iter(key(1)).Valid() || len(m.appendRange(nil, nil, nil)) != 0 {
		t.Fatal("empty memtable yielded an entry")
	}
	if m.rng != nil || m.chunks != nil || m.nodes != nil || m.towers != nil {
		t.Fatal("reading an empty memtable allocated its arena")
	}
}

// TestTreeRotatesFullArena: a memtable whose arena has run out of chunk
// indexes rotates like a full one, whatever its ByteSize says, so overwrites
// alone can never overflow a ref.
func TestTreeRotatesFullArena(t *testing.T) {
	tr := NewTree(testFlash(), DefaultConfig())
	tr.mem.chunks = make([][]byte, maxChunks-2) // as if churned by overwrites
	if err := tr.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.SSTs != 1 || tr.mem.Len() != 0 || tr.mem.chunks != nil {
		t.Fatalf("full arena did not rotate: %+v, %d entries left in C0", st, tr.mem.Len())
	}
	if v, ok, err := tr.Get(key(1), Access{}); err != nil || !ok || !bytes.Equal(v, val(1)) {
		t.Fatalf("Get after rotation = %q, %v, %v", v, ok, err)
	}
}
