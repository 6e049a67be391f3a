package fleet

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"testing"

	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/table"
)

var (
	dsOnce sync.Once
	dsInst *job.Dataset
	dsErr  error
)

// testDataset shares one tiny JOB dataset across the fleet tests.
func testDataset(t testing.TB) *job.Dataset {
	t.Helper()
	dsOnce.Do(func() { dsInst, dsErr = job.LoadSeeded(0.01, hw.Cosmos(), job.DefaultSeed) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsInst
}

// TestBuildCoversEveryTableExactlyOnce builds descriptors across schemes and
// fleet sizes and proves that every catalog table's key space is tiled
// exactly once: Validate passes, and every sampled primary key (plus the
// open extremes) falls into exactly one partition.
func TestBuildCoversEveryTableExactlyOnce(t *testing.T) {
	ds := testDataset(t)
	for _, spec := range []string{"range", "", "stripe", "stripe:3"} {
		for _, devices := range []int{1, 3, 4} {
			d, err := Build(ds.Cat, devices, spec)
			if err != nil {
				t.Fatalf("Build(devices=%d, spec=%q): %v", devices, spec, err)
			}
			if err := d.Validate(ds.Cat); err != nil {
				t.Fatalf("Validate(devices=%d, spec=%q): %v", devices, spec, err)
			}
			if len(d.Parts) != len(ds.Cat.Tables()) {
				t.Fatalf("devices=%d spec=%q: descriptor covers %d tables, catalog has %d",
					devices, spec, len(d.Parts), len(ds.Cat.Tables()))
			}
			for _, name := range ds.Cat.Tables() {
				tab, err := ds.Cat.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				probe := []int32{-1 << 30, 0, 1, 1 << 30}
				for _, r := range tab.CollectStats().Sample {
					probe = append(probe, r.PK())
				}
				for _, pk := range probe {
					owners := 0
					for _, p := range d.Parts[name] {
						if (p.Lo == nil || pk >= *p.Lo) && (p.Hi == nil || pk < *p.Hi) {
							owners++
						}
					}
					if owners != 1 {
						t.Fatalf("devices=%d spec=%q: table %s pk %d owned by %d partitions",
							devices, spec, name, pk, owners)
					}
				}
			}
		}
	}
}

// mutilate builds a valid 2-device descriptor and hands one table's
// partition slice (guaranteed to have at least 2 partitions) to the mutator.
func mutilate(t *testing.T, cat *table.Catalog, fn func(name string, parts []Partition) []Partition) *Descriptor {
	t.Helper()
	d, err := Build(cat, 2, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cat.Tables() {
		if len(d.Parts[name]) >= 2 {
			d.Parts[name] = fn(name, d.Parts[name])
			return d
		}
	}
	t.Fatal("no table produced 2 partitions at 2 devices")
	return nil
}

// TestValidateTypedErrors drives Validate through every defect class with a
// table-driven set of descriptor mutations.
func TestValidateTypedErrors(t *testing.T) {
	ds := testDataset(t)
	cases := []struct {
		name string
		want error
		make func(t *testing.T) *Descriptor
	}{
		{"valid", nil, func(t *testing.T) *Descriptor {
			d, err := Build(ds.Cat, 2, SchemeRange)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"unknown-table", ErrUnknownTable, func(t *testing.T) *Descriptor {
			d, err := Build(ds.Cat, 2, SchemeRange)
			if err != nil {
				t.Fatal(err)
			}
			d.Parts["aaa_not_a_table"] = []Partition{{Device: 0}}
			return d
		}},
		{"missing-table", ErrPartitionGap, func(t *testing.T) *Descriptor {
			d, err := Build(ds.Cat, 2, SchemeRange)
			if err != nil {
				t.Fatal(err)
			}
			delete(d.Parts, ds.Cat.Tables()[0])
			return d
		}},
		{"interior-gap", ErrPartitionGap, func(t *testing.T) *Descriptor {
			return mutilate(t, ds.Cat, func(name string, parts []Partition) []Partition {
				lo := *parts[1].Lo + 1
				parts[1].Lo = &lo
				return parts
			})
		}},
		{"leading-gap", ErrPartitionGap, func(t *testing.T) *Descriptor {
			return mutilate(t, ds.Cat, func(name string, parts []Partition) []Partition {
				lo := int32(-1 << 30)
				parts[0].Lo = &lo
				return parts
			})
		}},
		{"trailing-gap", ErrPartitionGap, func(t *testing.T) *Descriptor {
			return mutilate(t, ds.Cat, func(name string, parts []Partition) []Partition {
				hi := int32(1 << 30)
				parts[len(parts)-1].Hi = &hi
				return parts
			})
		}},
		{"overlap", ErrPartitionOverlap, func(t *testing.T) *Descriptor {
			return mutilate(t, ds.Cat, func(name string, parts []Partition) []Partition {
				lo := *parts[1].Lo - 1
				parts[1].Lo = &lo
				return parts
			})
		}},
		{"open-overlap", ErrPartitionOverlap, func(t *testing.T) *Descriptor {
			return mutilate(t, ds.Cat, func(name string, parts []Partition) []Partition {
				parts[1].Lo = nil
				return parts
			})
		}},
		{"inverted", ErrPartitionOverlap, func(t *testing.T) *Descriptor {
			return mutilate(t, ds.Cat, func(name string, parts []Partition) []Partition {
				hi := *parts[1].Lo
				parts[1].Hi = &hi
				parts = parts[:2]
				return parts
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.make(t).Validate(ds.Cat)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestValidateDeviceRange rejects partitions naming devices outside the fleet.
func TestValidateDeviceRange(t *testing.T) {
	ds := testDataset(t)
	d, err := Build(ds.Cat, 2, SchemeRange)
	if err != nil {
		t.Fatal(err)
	}
	name := ds.Cat.Tables()[0]
	d.Parts[name][0].Device = 99
	err = d.Validate(ds.Cat)
	if err == nil {
		t.Fatal("Validate accepted a partition on device 99 of a 2-device fleet")
	}
	if errors.Is(err, ErrPartitionGap) || errors.Is(err, ErrPartitionOverlap) || errors.Is(err, ErrUnknownTable) {
		t.Fatalf("device-range violation reported as %v", err)
	}
}

// TestParseSpec covers the spec grammar.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		scheme  string
		stripes int
		wantErr bool
	}{
		{"", SchemeRange, 1, false},
		{"range", SchemeRange, 1, false},
		{"stripe", SchemeStripe, 2, false},
		{"stripe:4", SchemeStripe, 4, false},
		{"stripe:0", "", 0, true},
		{"stripe:x", "", 0, true},
		{"hash", "", 0, true},
	} {
		scheme, stripes, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted", tc.spec)
			}
			continue
		}
		if err != nil || scheme != tc.scheme || stripes != tc.stripes {
			t.Errorf("ParseSpec(%q) = (%q, %d, %v), want (%q, %d)", tc.spec, scheme, stripes, err, tc.scheme, tc.stripes)
		}
	}
}

// canonicalSpec renders a parsed spec in the one form ParseSpec documents for
// it: "range", or "stripe:<n>".
func canonicalSpec(scheme string, stripes int) string {
	if scheme == SchemeRange {
		return SchemeRange
	}
	return SchemeStripe + ":" + strconv.Itoa(stripes)
}

// smallCatalog holds one table of the given number of rows, PKs 0, 3, 6, …:
// its statistics sample is the whole table.
func smallCatalog(t *testing.T, rows int) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog(kv.Open(flash.New(hw.Cosmos(), 0), lsm.DefaultConfig()))
	tbl, err := cat.CreateTable(table.MustSchema("t", []table.Column{{Name: "id", Type: table.Int32, Size: 4}}, "id"))
	if err != nil {
		t.Fatal(err)
	}
	var slab []byte
	for i := 0; i < rows; i++ {
		if slab, err = tbl.Schema.AppendRow(slab, []table.Value{table.IntVal(int32(3 * i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.BulkLoad(slab); err != nil {
		t.Fatal(err)
	}
	return cat
}

// FuzzParseSpec checks the -fleet flag on arbitrary text and fleet sizes: no
// input panics; a spec ParseSpec accepts re-parses, in canonical form, to the
// same (scheme, stripes); and Build over a small catalog either refuses it —
// only when devices × stripes overflows an int — or returns, after work
// bounded by the statistics sample, a descriptor that passes Validate, with
// no more partitions per table than the sample has rows plus one (a stripe
// factor of 10⁹ used to loop 10⁹ times per table). Seeds:
// testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, devices, rows uint8) {
		scheme, stripes, err := ParseSpec(spec)
		n := 1 + int(devices%16)
		if err != nil {
			if _, berr := Build(smallCatalog(t, 0), n, spec); berr == nil {
				t.Fatalf("ParseSpec(%q) fails (%v) but Build accepts it", spec, err)
			}
			return
		}
		canon := canonicalSpec(scheme, stripes)
		if s2, n2, err := ParseSpec(canon); err != nil || s2 != scheme || n2 != stripes {
			t.Fatalf("ParseSpec(%q) = (%q, %d) but its canonical form %q parses to (%q, %d, %v)",
				spec, scheme, stripes, canon, s2, n2, err)
		}
		cat := smallCatalog(t, int(rows%40))
		d, err := Build(cat, n, spec)
		if scheme == SchemeStripe && stripes > math.MaxInt/n {
			if err == nil {
				t.Fatalf("Build(%d devices, %q) accepted %d × %d partitions", n, spec, n, stripes)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build(%d devices, %q): %v", n, spec, err)
		}
		if err := d.Validate(cat); err != nil {
			t.Fatalf("Build(%d devices, %q) fails Validate: %v", n, spec, err)
		}
		if d.Devices != n || d.Scheme != scheme {
			t.Fatalf("Build(%d devices, %q) = %d devices, scheme %q", n, spec, d.Devices, d.Scheme)
		}
		tbl, err := cat.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if got, most := len(d.Parts["t"]), len(tbl.CollectStats().Sample)+1; got > most {
			t.Fatalf("Build(%d devices, %q) cut %d partitions from a %d-row sample", n, spec, got, most-1)
		}
	})
}
