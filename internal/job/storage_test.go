package job

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"hybridndp/internal/hw"
)

// storageDigest hashes every column family's SST bytes — family by name, each
// family's files level by level (C0 always empty, C1 newest first) — and
// reports the flash counters of the load alongside. The counters are read
// before hashing, whose reads would move BytesRead.
func storageDigest(t testing.TB, ds *Dataset) (digest string, written, read, used int64) {
	t.Helper()
	st := ds.Flash.Stats()
	written, read, used = st.BytesWritten, st.BytesRead, ds.Flash.Used()
	h := sha256.New()
	for _, name := range ds.DB.ColumnFamilies() {
		cf, err := ds.DB.CF(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00", name)
		fmt.Fprint(h, "L0\x00")
		for i, lvl := range cf.View().Levels() {
			fmt.Fprintf(h, "L%d\x00", i+1)
			for _, sst := range lvl {
				blob, err := ds.Flash.ReadAt(sst.File(), 0, ds.Flash.Size(sst.File()), nil, hw.Rates{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(blob)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), written, read, used
}

// TestLoadStorageIsByteIdentical pins what the write path stores: the SST
// bytes of every column family and the flash counters of a default-seed load.
// SST-build buffering and row encoding are wall-clock concerns only; a change
// to either that moves one stored byte, an SST boundary (the ByteSize rule
// decides where bulk-load segments end) or a flash counter fails here. The
// expected values were computed when rows still entered through a memtable,
// before the arena memtable replaced the pointer skiplist.
func TestLoadStorageIsByteIdentical(t *testing.T) {
	for _, c := range storagePins {
		ds, err := LoadSeeded(c.scale, hw.Cosmos(), 0)
		if err != nil {
			t.Fatal(err)
		}
		checkStoragePin(t, c.scale, ds)
	}
}

// storagePins are the stored digests and flash counters of default-seed loads.
var storagePins = []struct {
	scale               float64
	digest              string
	written, read, used int64
}{
	{0.01, "878a0de4a6783f9fbcfe2201d3ce452190e22e48d0c7fff72e7a2d7a37b7252a", 3163259, 5100669, 3719168},
	{0.05, "5b8dfee98004d2b1d673d23e424796ea17d1233587802fd9ea121b304f4ab25a", 15763120, 25425540, 16252928},
}

// checkStoragePin requires ds, a default-seed load at scale, to store its pin.
func checkStoragePin(t *testing.T, scale float64, ds *Dataset) {
	t.Helper()
	for _, c := range storagePins {
		if c.scale != scale {
			continue
		}
		digest, written, read, used := storageDigest(t, ds)
		if digest != c.digest || written != c.written || read != c.read || used != c.used {
			t.Errorf("scale %g: stored digest %s, flash written %d read %d used %d; want %s, %d, %d, %d",
				c.scale, digest, written, read, used, c.digest, c.written, c.read, c.used)
		}
		return
	}
	t.Fatalf("no storage pin for scale %g", scale)
}

// TestLoadIndependentOfWorkers: a load with one worker — the generator runs to
// the end, then the tables load one after another — and a load with four,
// where tables load while later ones are generated, store the pinned bytes and
// flash counters and collect the same statistics for every table. Which worker
// loads a table, and when, must not reach anything a query can see.
func TestLoadIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first map[string]string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ds, err := LoadSeeded(0.01, hw.Cosmos(), 0)
		if err != nil {
			t.Fatal(err)
		}
		checkStoragePin(t, 0.01, ds)
		stats := map[string]string{}
		for _, name := range ds.Cat.Tables() {
			tbl, err := ds.Cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			st := tbl.CollectStats()
			h := sha256.New()
			for _, r := range st.Sample {
				h.Write(r.Data)
			}
			stats[name] = fmt.Sprintf("rows %d, NDV %v, IntMinMax %v, sample %x", st.RowCount, st.NDV, st.IntMinMax, h.Sum(nil))
		}
		if first == nil {
			first = stats
			continue
		}
		for name, want := range first {
			if got := stats[name]; got != want {
				t.Errorf("%s with GOMAXPROCS %d: %s; with 1: %s", name, procs, got, want)
			}
		}
	}
}
