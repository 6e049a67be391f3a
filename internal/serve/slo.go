package serve

import (
	"math"

	"hybridndp/internal/coop"
	"hybridndp/internal/obs"
	"hybridndp/internal/vclock"
)

// LatencyBuckets is the fixed-bound ladder for request latency histograms:
// 64 geometric buckets from 1µs, ratio 10^(1/8) (~1.33×, eight buckets per
// decade), reaching ~80 virtual seconds. Fixed bounds keep the metrics dump
// byte-stable and make quantile estimates a deterministic function of the
// bucket counts alone.
var LatencyBuckets = makeLatencyBuckets()

func makeLatencyBuckets() []float64 {
	out := make([]float64, 64)
	ratio := math.Pow(10, 0.125)
	v := 1e3
	for i := range out {
		out[i] = math.Round(v)
		v *= ratio
	}
	return out
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of a fixed-bound histogram
// as the upper bound of the first bucket whose cumulative count reaches
// q×total — a conservative (never-underestimating) deterministic estimate.
// Samples in the +Inf overflow bucket report +Inf. Zero observations report
// zero.
func Quantile(h *obs.Histogram, q float64) vclock.Duration {
	bounds, counts := h.Buckets()
	if len(counts) == 0 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i < len(bounds) {
				return vclock.Duration(bounds[i])
			}
			return vclock.Duration(math.Inf(1))
		}
	}
	return vclock.Duration(math.Inf(1))
}

// metrics are the registry handles the serving loop records into. Each is
// resolved on first use and kept, so recording a request builds no metric
// name and takes no registry lock, and the registry — and its dump — still
// holds exactly the metrics a run touched.
type metrics struct {
	requests, admitted, quotaRej, queueRej, deadlineRej, completed counter
	wait, latency                                                  histogram
	tenants                                                        []tenantMetrics
	strategies                                                     map[coop.Strategy]*obs.Counter
	reg                                                            *obs.Registry
}

// tenantMetrics are one tenant's handles: its name suffixes each metric.
type tenantMetrics struct {
	requests, quotaRej, queueRej, deadlineRej, completed, sloMiss counter
	latency                                                       histogram
}

func newMetrics(reg *obs.Registry, tenants []TenantConfig) metrics {
	m := metrics{
		requests:    counter{reg: reg, name: "serve.requests"},
		admitted:    counter{reg: reg, name: "serve.admitted"},
		quotaRej:    counter{reg: reg, name: "serve.rejected.quota"},
		queueRej:    counter{reg: reg, name: "serve.rejected.queue_full"},
		deadlineRej: counter{reg: reg, name: "serve.rejected.deadline"},
		completed:   counter{reg: reg, name: "serve.completed"},
		wait:        histogram{reg: reg, name: "serve.queue.wait.ns"},
		latency:     histogram{reg: reg, name: "serve.latency.ns"},
		tenants:     make([]tenantMetrics, len(tenants)),
		strategies:  map[coop.Strategy]*obs.Counter{},
		reg:         reg,
	}
	for i, tc := range tenants {
		m.tenants[i] = tenantMetrics{
			requests:    counter{reg: reg, name: "serve.requests." + tc.Name},
			quotaRej:    counter{reg: reg, name: "serve.rejected.quota." + tc.Name},
			queueRej:    counter{reg: reg, name: "serve.rejected.queue_full." + tc.Name},
			deadlineRej: counter{reg: reg, name: "serve.rejected.deadline." + tc.Name},
			completed:   counter{reg: reg, name: "serve.completed." + tc.Name},
			sloMiss:     counter{reg: reg, name: "serve.slo.miss." + tc.Name},
			latency:     histogram{reg: reg, name: "serve.latency.ns." + tc.Name},
		}
	}
	return m
}

// strategy returns the counter of requests placed on strategy s.
func (m *metrics) strategy(s coop.Strategy) *obs.Counter {
	c, ok := m.strategies[s]
	if !ok {
		c = m.reg.Counter("serve.strategy." + s.String())
		m.strategies[s] = c
	}
	return c
}

// counter is a registry counter resolved on first use.
type counter struct {
	reg  *obs.Registry
	name string
	c    *obs.Counter
}

func (c *counter) inc() {
	if c.c == nil {
		c.c = c.reg.Counter(c.name)
	}
	c.c.Inc()
}

// histogram is a LatencyBuckets histogram resolved on first use.
type histogram struct {
	reg  *obs.Registry
	name string
	h    *obs.Histogram
}

func (h *histogram) get() *obs.Histogram {
	if h.h == nil {
		h.h = h.reg.Histogram(h.name, LatencyBuckets)
	}
	return h.h
}

func (h *histogram) observe(v float64) { h.get().Observe(v) }
