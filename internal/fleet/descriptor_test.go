package fleet

import (
	"errors"
	"sync"
	"testing"

	"hybridndp/internal/hw"
	"hybridndp/internal/job"
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
						if p.Contains(pk) {
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
			d.Parts["aaa_not_a_table"] = []Partition{{Table: "aaa_not_a_table", Device: 0}}
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
