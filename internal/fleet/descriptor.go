// Package fleet scales the single-device hybridNDP model out to a sharded
// smart-storage fleet: a fleet descriptor range-partitions every table's
// primary-key space across N simulated devices (the platform-configuration
// idiom of DPU offload services — the descriptor names which device holds
// which partitions before any query runs), the split-point calculator is
// re-run once for a device's 1/N share of the driving table, and a scatter-
// gather executor fans that one NDP-PQEP out to every device, each over its
// own partitions, and merges partial results host-side in ascending
// partition order, so the merged
// tuple stream — and therefore every query result — is byte-identical to a
// single-device run regardless of fleet size or worker interleaving (the
// Taurus-NDP shape from PAPERS.md: push scans to many page stores, combine
// at the compute layer).
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"hybridndp/internal/table"
)

// Typed descriptor-validation errors. Validation runs before any execution:
// a descriptor that does not cover every table's key space exactly once
// would silently drop or duplicate rows.
var (
	// ErrPartitionGap reports key ranges no partition covers.
	ErrPartitionGap = errors.New("fleet: partition gap")
	// ErrPartitionOverlap reports key ranges covered by more than one
	// partition (or non-ascending partition bounds).
	ErrPartitionOverlap = errors.New("fleet: partitions overlap")
	// ErrUnknownTable reports a descriptor entry for a table the catalog does
	// not have.
	ErrUnknownTable = errors.New("fleet: unknown table")
)

// Partition is one contiguous primary-key range [Lo, Hi) of a table assigned
// to a device. Nil bounds are open (-inf / +inf).
type Partition struct {
	Lo, Hi *int32
	Device int
}

// rangeLabel renders one bound pair.
func rangeLabel(lo, hi *int32) string {
	l, h := "-inf", "+inf"
	if lo != nil {
		l = strconv.Itoa(int(*lo))
	}
	if hi != nil {
		h = strconv.Itoa(int(*hi))
	}
	return "[" + l + "," + h + ")"
}

// Descriptor is the fleet's platform configuration: how many devices exist
// and which device holds which primary-key partition of which table. The
// configuration is immutable after Build and the descriptor is safe to share
// across concurrent runs.
type Descriptor struct {
	Devices int
	Scheme  string // "range" or "stripe"
	// Parts maps table name → partitions in ascending key order. Every
	// table's partitions must tile (-inf, +inf) exactly once (Validate).
	Parts map[string][]Partition
}

// Spec schemes. Range gives each device one contiguous block of every
// table's key space; stripe cuts each table into Devices×stripesPerDevice
// quantile sub-ranges dealt round-robin — the hash-like placement that still
// stays executable as PK-range scans.
const (
	SchemeRange  = "range"
	SchemeStripe = "stripe"
)

// stripesPerDevice is the default stripe factor of the stripe scheme.
const stripesPerDevice = 2

// ParseSpec parses a -fleet spec: "range", "stripe", or "stripe:<n>" with an
// explicit per-device stripe count.
func ParseSpec(spec string) (scheme string, stripes int, err error) {
	switch {
	case spec == "" || spec == SchemeRange:
		return SchemeRange, 1, nil
	case spec == SchemeStripe:
		return SchemeStripe, stripesPerDevice, nil
	case strings.HasPrefix(spec, SchemeStripe+":"):
		n, err := strconv.Atoi(strings.TrimPrefix(spec, SchemeStripe+":"))
		if err != nil || n < 1 {
			return "", 0, fmt.Errorf("fleet: bad stripe factor in spec %q", spec)
		}
		return SchemeStripe, n, nil
	}
	return "", 0, fmt.Errorf("fleet: unknown spec %q (want range, stripe or stripe:<n>)", spec)
}

// Build derives a fleet descriptor over every catalog table from the stats
// samples (the same PK-quantile technique the device uses for chunk bounds):
// deterministic for a given dataset, so two processes building the same spec
// agree on placement without exchanging state.
func Build(cat *table.Catalog, devices int, spec string) (*Descriptor, error) {
	scheme, stripes, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if devices < 1 {
		devices = 1
	}
	nparts := devices
	if scheme == SchemeStripe {
		if stripes > math.MaxInt/devices {
			return nil, fmt.Errorf("fleet: %d stripes on each of %d devices is more partitions than an int counts", stripes, devices)
		}
		nparts = devices * stripes
	}
	d := &Descriptor{Devices: devices, Scheme: scheme, Parts: make(map[string][]Partition)}
	for _, name := range cat.Tables() {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		bounds := t.CollectStats().PKQuantiles(nparts)
		parts := make([]Partition, 0, len(bounds)-1)
		for i := 0; i+1 < len(bounds); i++ {
			dev := i
			if scheme == SchemeStripe {
				dev = i % devices
			}
			if dev >= devices { // fewer cut points than devices: clamp
				dev = devices - 1
			}
			parts = append(parts, Partition{Lo: bounds[i], Hi: bounds[i+1], Device: dev})
		}
		d.Parts[name] = parts
	}
	return d, nil
}

// Validate checks the descriptor against the catalog: every descriptor table
// must exist (ErrUnknownTable), every catalog table's full key space must be
// covered (ErrPartitionGap) exactly once (ErrPartitionOverlap), and every
// partition must name a device inside the fleet.
func (d *Descriptor) Validate(cat *table.Catalog) error {
	known := make(map[string]bool)
	for _, name := range cat.Tables() {
		known[name] = true
	}
	names := make([]string, 0, len(d.Parts))
	for name := range d.Parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !known[name] {
			return fmt.Errorf("%w: %q is not in the catalog", ErrUnknownTable, name)
		}
		parts := d.Parts[name]
		if len(parts) == 0 {
			return fmt.Errorf("%w: table %q has no partitions", ErrPartitionGap, name)
		}
		for i, p := range parts {
			if p.Device < 0 || p.Device >= d.Devices {
				return fmt.Errorf("fleet: table %q partition %s names device %d outside fleet of %d",
					name, rangeLabel(p.Lo, p.Hi), p.Device, d.Devices)
			}
			if p.Lo != nil && p.Hi != nil && *p.Hi <= *p.Lo {
				return fmt.Errorf("%w: table %q partition %s is empty or inverted",
					ErrPartitionOverlap, name, rangeLabel(p.Lo, p.Hi))
			}
			if i == 0 {
				if p.Lo != nil {
					return fmt.Errorf("%w: table %q keys below %d are uncovered",
						ErrPartitionGap, name, *p.Lo)
				}
				continue
			}
			prev := parts[i-1]
			switch {
			case prev.Hi == nil || p.Lo == nil:
				return fmt.Errorf("%w: table %q partition %s overlaps %s",
					ErrPartitionOverlap, name, rangeLabel(p.Lo, p.Hi), rangeLabel(prev.Lo, prev.Hi))
			case *p.Lo < *prev.Hi:
				return fmt.Errorf("%w: table %q partition %s overlaps %s",
					ErrPartitionOverlap, name, rangeLabel(p.Lo, p.Hi), rangeLabel(prev.Lo, prev.Hi))
			case *p.Lo > *prev.Hi:
				return fmt.Errorf("%w: table %q keys in %s are uncovered",
					ErrPartitionGap, name, rangeLabel(prev.Hi, p.Lo))
			}
		}
		if last := parts[len(parts)-1]; last.Hi != nil {
			return fmt.Errorf("%w: table %q keys from %d up are uncovered",
				ErrPartitionGap, name, *last.Hi)
		}
	}
	for _, name := range cat.Tables() {
		if _, ok := d.Parts[name]; !ok {
			return fmt.Errorf("%w: catalog table %q has no partitions", ErrPartitionGap, name)
		}
	}
	return nil
}

// String renders the descriptor as a platform-configuration listing, one
// line per table, deterministic for diffing.
func (d *Descriptor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet devices=%d scheme=%s\n", d.Devices, d.Scheme)
	names := make([]string, 0, len(d.Parts))
	for name := range d.Parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %s:", name)
		for _, p := range d.Parts[name] {
			fmt.Fprintf(&b, " %s→dev%d", rangeLabel(p.Lo, p.Hi), p.Device)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
