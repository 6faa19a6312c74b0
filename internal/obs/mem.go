// Memory observability: the data types of the phase-scoped allocation
// accounting. The readers that fill them (ReadMem, HeapLiveBytes, the
// sampler) are in memread.go.
package obs

import "time"

// DefaultMemSampleInterval is the cadence StartMemSampler falls back to
// when given a non-positive interval: frequent enough to catch the heap
// high-water mark of any phase that runs longer than a blink, rare
// enough that the per-sample runtime/metrics read and ReadMemStats call
// stay far below measurement noise (see the sampler A/B under "Memory
// columns" in EXPERIMENTS.md).
const DefaultMemSampleInterval = 100 * time.Millisecond

// MemPoint is a point-in-time reading of the Go allocator's cumulative
// counters, cheap enough to take at every pipeline phase boundary. All
// fields are monotonically non-decreasing over a process lifetime, so
// two points subtract into a meaningful per-interval delta.
type MemPoint struct {
	// AllocBytes is the cumulative bytes allocated on the heap
	// (runtime.MemStats.TotalAlloc — freed memory does not subtract).
	AllocBytes uint64
	// AllocObjects is the cumulative count of heap objects allocated
	// (runtime.MemStats.Mallocs).
	AllocObjects uint64
	// GCCycles is the number of completed GC cycles
	// (runtime.MemStats.NumGC).
	GCCycles uint32
	// GCPause is the cumulative stop-the-world pause time
	// (runtime.MemStats.PauseTotalNs).
	GCPause time.Duration
}

// MemDelta is the allocator movement between two MemPoints: what one
// phase (or one measured operation) cost in allocation volume and GC
// activity. The zero delta means "nothing measured" and marshals to
// nothing via the omitempty fields it feeds.
type MemDelta struct {
	// AllocBytes / AllocObjects are the heap bytes and objects allocated
	// in the interval.
	AllocBytes   int64
	AllocObjects int64
	// GCCycles is how many GC cycles completed in the interval.
	GCCycles int64
	// GCPause is the stop-the-world pause time the interval absorbed.
	GCPause time.Duration
}

// Sub returns the allocator movement from earlier to p. Negative
// components clamp to zero: the counters are monotone, so a negative
// difference only means the points were taken in the wrong order.
func (p MemPoint) Sub(earlier MemPoint) MemDelta {
	d := MemDelta{
		AllocBytes:   int64(p.AllocBytes) - int64(earlier.AllocBytes),
		AllocObjects: int64(p.AllocObjects) - int64(earlier.AllocObjects),
		GCCycles:     int64(p.GCCycles) - int64(earlier.GCCycles),
		GCPause:      p.GCPause - earlier.GCPause,
	}
	if d.AllocBytes < 0 {
		d.AllocBytes = 0
	}
	if d.AllocObjects < 0 {
		d.AllocObjects = 0
	}
	if d.GCCycles < 0 {
		d.GCCycles = 0
	}
	if d.GCPause < 0 {
		d.GCPause = 0
	}
	return d
}
