package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone race-safe counter. The nil counter is a no-op sink.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a race-safe instantaneous value (float64). The nil gauge is a
// no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value reports the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a race-safe histogram over fixed, immutable bucket bounds:
// observation x lands in the first bucket with x <= bound, or the implicit
// +Inf overflow bucket. Fixed bounds keep dumps byte-stable and make two
// histograms mergeable by bucket index. The nil histogram is a no-op sink.
type Histogram struct {
	bounds []float64 // immutable after newHistogram
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		v := math.Float64frombits(old) + x
		if h.sum.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observations. Under concurrent observers the
// float accumulation order is nondeterministic; dumps meant to be
// byte-compared must come from single-goroutine runs (as the determinism test
// does).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the bounds and per-bucket counts (the last count is the
// +Inf overflow bucket).
func (h *Histogram) Buckets() ([]float64, []int64) {
	if h == nil {
		return nil, nil
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// DefaultDurationBuckets is the standard bucket ladder for virtual-nanosecond
// durations: 1µs..10s in decades.
var DefaultDurationBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// DefaultSizeBuckets is the standard ladder for row/byte counts.
var DefaultSizeBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// DefaultRatioBuckets is the ladder for actual/estimate ratios (calibration
// true-up): 1 is a perfect estimate, the tails are order-of-magnitude misses.
var DefaultRatioBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 4, 10, 100}

// Registry is a race-safe named-metric registry. Metric handles are created
// on first use and stable afterwards; the text dump is sorted and
// byte-stable. The nil registry hands out nil (no-op) metric handles, so
// instrumented code needs no branches beyond the calls themselves.
type Registry struct {
	mu sync.Mutex
	cs map[string]*Counter   // guarded by mu
	gs map[string]*Gauge     // guarded by mu
	hs map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cs: map[string]*Counter{},
		gs: map[string]*Gauge{},
		hs: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cs[name]
	if !ok {
		c = &Counter{}
		r.cs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gs[name]
	if !ok {
		g = &Gauge{}
		r.gs[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds on
// first use. Later calls return the existing histogram regardless of bounds
// (bounds are a property of the first registration).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hs[name]
	if !ok {
		h = newHistogram(bounds)
		r.hs[name] = h
	}
	return h
}

// num renders a float64 without trailing noise, deterministically.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo dumps every metric as one line, sorted by kind-qualified name, in a
// fixed plain-text format:
//
//	counter <name> <value>
//	gauge <name> <value>
//	hist <name> count=<n> sum=<s> le{<bound>=<n> ... inf=<n>}
//
// The dump is byte-stable for a given sequence of recordings.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	type line struct{ key, text string }
	var lines []line
	for name, c := range r.cs {
		lines = append(lines, line{"counter " + name,
			fmt.Sprintf("counter %s %d\n", name, c.Value())})
	}
	for name, g := range r.gs {
		lines = append(lines, line{"gauge " + name,
			fmt.Sprintf("gauge %s %s\n", name, num(g.Value()))})
	}
	for name, h := range r.hs {
		lines = append(lines, line{"hist " + name, histLine(name, h)})
	}
	r.mu.Unlock()
	sort.Slice(lines, func(i, j int) bool { return lines[i].key < lines[j].key })
	var n int64
	for _, l := range lines {
		m, err := io.WriteString(w, l.text)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// histLine renders one histogram's dump line.
func histLine(name string, h *Histogram) string {
	bounds, counts := h.Buckets()
	var b strings.Builder
	fmt.Fprintf(&b, "hist %s count=%d sum=%s le{", name, h.Count(), num(h.Sum()))
	for i, bound := range bounds {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", num(bound), counts[i])
	}
	if len(bounds) > 0 {
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "inf=%d}\n", counts[len(counts)-1])
	return b.String()
}

// Dump returns the sorted text dump as a string.
func (r *Registry) Dump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	//lint:allow errsink writes to a strings.Builder cannot fail
	_, _ = r.WriteTo(&b)
	return b.String()
}
