package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Register once
// with NewCounter (package-level var), then Add/Inc on the hot path —
// one atomic add, no locks.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the upper bounds (inclusive, nanoseconds) of the
// duration histogram: exponential from 1µs to ~17.2s, then +Inf.
var histBuckets = func() []int64 {
	b := make([]int64, 25)
	v := int64(1000) // 1µs
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bucket duration histogram (exponential bounds,
// 1µs..~17s, plus +Inf). Observing is a few atomic adds.
type Histogram struct {
	counts [26]atomic.Int64 // one per bound, plus the +Inf overflow
	sum    atomic.Int64     // nanoseconds
	n      atomic.Int64
	name   string
	help   string
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d.Nanoseconds()) }

// ObserveN records one raw integer observation — e.g. a frontier size —
// binned against the same exponential bounds as durations (everything
// below the first bound shares one bucket, so Count and Sum are the
// precise statistics for small values; the buckets resolve the tail).
func (h *Histogram) ObserveN(v int64) {
	i := sort.Search(len(histBuckets), func(i int) bool { return histBuckets[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the summed observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts
// by linear interpolation inside the bucket the rank falls into —
// accurate to bucket resolution (bounds double, so the estimate is
// within 2x of the true value). Observations in the +Inf overflow
// bucket clamp to the largest finite bound. Returns 0 when nothing has
// been observed.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c > 0 && float64(cum+c) >= rank {
			if i >= len(histBuckets) {
				// +Inf overflow: clamp to the largest finite bound.
				return time.Duration(histBuckets[len(histBuckets)-1])
			}
			lo := int64(0)
			if i > 0 {
				lo = histBuckets[i-1]
			}
			hi := histBuckets[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	return time.Duration(histBuckets[len(histBuckets)-1])
}

// Merge folds other's observations into h (bucket-wise addition; both
// histograms share the package's fixed bucket bounds). other is read
// atomically bucket by bucket, so merging a live histogram is safe but
// yields a possibly-torn point-in-time view — merge quiesced histograms
// when exactness matters.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other == h {
		return
	}
	for i := range h.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.Add(other.sum.Load())
	h.n.Add(other.n.Load())
}

// registry holds every registered metric by full name. Registration
// takes a lock; hot-path updates never touch it.
var registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Name assembles a metric name with label pairs in Prometheus form:
// Name("hcd_fault_fired_total", "site", "phcd.step2") returns
// `hcd_fault_fired_total{site="phcd.step2"}`. Pairs must come in
// (key, value) order.
func Name(base string, labelPairs ...string) string {
	if len(labelPairs) == 0 {
		return base
	}
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labelPairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", labelPairs[i], labelPairs[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// NewCounter registers (or retrieves — registration is idempotent, so
// package-level and per-site dynamic registration can share names) the
// counter with the given full name.
func NewCounter(name, help string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = map[string]*Counter{}
	}
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	registry.counters[name] = c
	return c
}

// NewGauge registers (or retrieves) the gauge with the given full name.
func NewGauge(name, help string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.gauges == nil {
		registry.gauges = map[string]*Gauge{}
	}
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	registry.gauges[name] = g
	return g
}

// NewHistogram registers (or retrieves) the duration histogram with the
// given full name.
func NewHistogram(name, help string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.histograms == nil {
		registry.histograms = map[string]*Histogram{}
	}
	if h, ok := registry.histograms[name]; ok {
		return h
	}
	h := &Histogram{name: name, help: help}
	registry.histograms[name] = h
	return h
}
