package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("second lookup must return the same counter")
	}

	g := r.Gauge("g")
	g.Set(2)
	if g.Value() != 2 {
		t.Fatalf("gauge %v, want 2", g.Value())
	}
	g.SetInt(7)
	if g.Value() != 7 {
		t.Fatalf("gauge %v, want 7", g.Value())
	}

	h := r.Histogram("h", []float64{10, 100})
	for _, x := range []float64{5, 10, 50, 1000} {
		h.Observe(x)
	}
	if h.Count() != 4 || h.Sum() != 1065 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 2 || counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("buckets %v %v", bounds, counts)
	}
}

func TestNilRegistryHandsOutInertHandles(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", DefaultSizeBuckets).Observe(1)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h", nil).Count() != 0 {
		t.Fatal("nil registry handles must be inert")
	}
	if r.Dump() != "" {
		t.Fatal("nil registry dump must be empty")
	}
	if n, err := r.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Fatal("nil registry WriteTo must be a no-op")
	}
}

func TestDumpSortedAndByteStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in an order that differs from the sorted dump order.
		r.Gauge("z.gauge").Set(2.5)
		r.Counter("b.counter").Add(3)
		r.Histogram("a.hist", []float64{1, 10}).Observe(5)
		r.Counter("a.counter").Inc()
		return r
	}
	d1, d2 := build().Dump(), build().Dump()
	if d1 != d2 {
		t.Fatalf("dumps differ:\n%s\n---\n%s", d1, d2)
	}
	lines := strings.Split(strings.TrimSpace(d1), "\n")
	want := []string{
		"counter a.counter 1",
		"counter b.counter 3",
		"gauge z.gauge 2.5",
		"hist a.hist count=1 sum=5 le{1=0 10=1 inf=0}",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), d1)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestHistogramBoundsAreSortedCopies(t *testing.T) {
	in := []float64{100, 1, 10}
	h := newHistogram(in)
	h.Observe(5)
	bounds, counts := h.Buckets()
	if bounds[0] != 1 || bounds[1] != 10 || bounds[2] != 100 {
		t.Fatalf("bounds not sorted: %v", bounds)
	}
	if counts[1] != 1 {
		t.Fatalf("5 must land in (1,10] bucket: %v", counts)
	}
	in[0] = -1 // mutating the caller's slice must not affect the histogram
	if b, _ := h.Buckets(); b[2] != 100 {
		t.Fatal("histogram shares the caller's bounds slice")
	}
}

// TestRegistryConcurrentUpdates is the race stress for the registry: many
// goroutines hammer shared counters, gauges and histograms (including
// first-use creation races) and one dump runs concurrently. Run under
// `go test -race` (make race) this proves the registry is safe to share
// across scheduler workers.
func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared.counter").Inc()
				r.Gauge("shared.gauge").SetInt(int64(g*perG + i))
				r.Histogram("shared.hist", DefaultSizeBuckets).Observe(float64(i))
				if i == perG/2 {
					// A dump in the middle of the storm must not race.
					_ = r.Dump()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != goroutines*perG {
		t.Fatalf("counter %d, want %d", got, goroutines*perG)
	}
	// The last store of all is some goroutine's last store.
	if got := int(r.Gauge("shared.gauge").Value()); got%perG != perG-1 || got/perG >= goroutines {
		t.Fatalf("gauge %d, want a goroutine's last value", got)
	}
	if got := r.Histogram("shared.hist", nil).Count(); got != goroutines*perG {
		t.Fatalf("hist count %d, want %d", got, goroutines*perG)
	}
	if !strings.Contains(r.Dump(), "counter shared.counter 8000") {
		t.Fatalf("final dump wrong:\n%s", r.Dump())
	}
}
