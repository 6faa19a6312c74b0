package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// The runtime-memory instruments: current readings, process-lifetime
// high-water marks, and the GC pause distribution. The gauges are
// updated by SampleMem (driven by the StartMemSampler goroutine in
// long-running processes); the high-water marks are monotone over the
// process lifetime, matching how an operator reads a "peak" gauge.
var (
	gMemHeapLive = NewGauge("hcd_mem_heap_live_bytes",
		"heap bytes live after the last completed GC")
	gMemHeapLivePeak = NewGauge("hcd_mem_heap_live_peak_bytes",
		"high-water mark of hcd_mem_heap_live_bytes")
	gMemHeapObjects = NewGauge("hcd_mem_heap_objects_bytes",
		"bytes currently occupied by heap objects, garbage included until sweep")
	gMemHeapObjectsPeak = NewGauge("hcd_mem_heap_objects_peak_bytes",
		"high-water mark of hcd_mem_heap_objects_bytes")
	gMemGoroutines = NewGauge("hcd_mem_goroutines",
		"goroutines at the last memory sample")
	gMemGoroutinesPeak = NewGauge("hcd_mem_goroutines_peak",
		"high-water mark of hcd_mem_goroutines")
	gMemGCCycles = NewGauge("hcd_mem_gc_cycles",
		"completed GC cycles at the last memory sample")
	hMemGCPause = NewHistogram("hcd_mem_gc_pause_ns",
		"individual GC stop-the-world pause durations")
)

// memPeaks holds the monotone high-water marks behind the *_peak gauges.
var memPeaks struct {
	heapLive    atomic.Int64
	heapObjects atomic.Int64
	goroutines  atomic.Int64
}

// memPauseWalk serialises the GC-pause bookkeeping of SampleMem: the
// last GC cycle whose pause was already observed into hMemGCPause.
var memPauseWalk struct {
	mu     sync.Mutex
	lastGC uint32
}

// memMetricNames are the runtime/metrics keys one SampleMem reads. The
// heap-live reading only moves at GC boundaries (it is the previous
// mark's live set); the objects reading moves with every allocation.
const (
	metricHeapLive    = "/gc/heap/live:bytes"
	metricHeapObjects = "/memory/classes/heap/objects:bytes"
	metricGoroutines  = "/sched/goroutines:goroutines"
)

// ReadMem captures the allocator's cumulative counters. One
// runtime.ReadMemStats call — microseconds, fine at phase boundaries,
// not for per-operation hot paths.
func ReadMem() MemPoint {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemPoint{
		AllocBytes:   ms.TotalAlloc,
		AllocObjects: ms.Mallocs,
		GCCycles:     ms.NumGC,
		GCPause:      time.Duration(ms.PauseTotalNs),
	}
}

// readUint64Metric reads one uint64 runtime/metrics value, 0 when the
// running runtime does not export it.
func readUint64Metric(name string) int64 {
	s := [1]metrics.Sample{{Name: name}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// HeapLiveBytes reports the heap bytes live after the last completed GC
// — the stable "what does the resident data cost" number, updated at GC
// boundaries only.
func HeapLiveBytes() int64 { return readUint64Metric(metricHeapLive) }

// peakStore folds v into a monotone high-water mark and mirrors the
// result into its gauge.
func peakStore(peak *atomic.Int64, g *Gauge, v int64) {
	for {
		cur := peak.Load()
		if v <= cur {
			g.Set(cur)
			return
		}
		if peak.CompareAndSwap(cur, v) {
			g.Set(v)
			return
		}
	}
}

// SampleMem takes one memory sample: current heap-live / heap-objects /
// goroutine readings and their process-lifetime peaks into the
// hcd_mem_* gauges, plus every GC pause completed since the previous
// sample observed individually into the hcd_mem_gc_pause_ns histogram.
// Safe for concurrent use; the sampler goroutine calls it on a ticker
// and tests call it directly.
func SampleMem() {
	s := [3]metrics.Sample{
		{Name: metricHeapLive},
		{Name: metricHeapObjects},
		{Name: metricGoroutines},
	}
	metrics.Read(s[:])
	read := func(i int) int64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return int64(s[i].Value.Uint64())
	}
	live, objects, goroutines := read(0), read(1), read(2)
	gMemHeapLive.Set(live)
	gMemHeapObjects.Set(objects)
	gMemGoroutines.Set(goroutines)
	peakStore(&memPeaks.heapLive, gMemHeapLivePeak, live)
	peakStore(&memPeaks.heapObjects, gMemHeapObjectsPeak, objects)
	peakStore(&memPeaks.goroutines, gMemGoroutinesPeak, goroutines)

	// GC pauses: walk the PauseNs circular buffer from the last observed
	// cycle to the current one, so each pause lands in the histogram
	// exactly once. A sampler outrun by more than 256 cycles observes the
	// newest 256 — the buffer holds no more.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gMemGCCycles.Set(int64(ms.NumGC))
	memPauseWalk.mu.Lock()
	from := memPauseWalk.lastGC + 1
	if ms.NumGC > 255 && from < ms.NumGC-255 {
		from = ms.NumGC - 255
	}
	for i := from; i <= ms.NumGC; i++ {
		hMemGCPause.Observe(time.Duration(ms.PauseNs[(i+255)%256]))
	}
	if ms.NumGC > memPauseWalk.lastGC {
		memPauseWalk.lastGC = ms.NumGC
	}
	memPauseWalk.mu.Unlock()
}

// StartMemSampler starts the background memory sampler: SampleMem on a
// ticker at the given interval (DefaultMemSampleInterval when
// non-positive). The returned stop function halts the sampler and is
// idempotent. One final sample is taken on stop, so short-lived
// processes record their peaks even when they never lived a full tick.
func StartMemSampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultMemSampleInterval
	}
	SampleMem() // seed the gauges so scrapes before the first tick see data
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				SampleMem()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-exited
			SampleMem()
		})
	}
}
