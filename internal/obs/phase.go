// Package obs is the repository's always-on observability layer: phase
// spans recorded into an in-memory ring buffer (exportable as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto), an atomic
// metrics registry (counters, gauges, duration histograms), per-phase
// worker statistics fed by the par primitives, and exposition over
// expvar, Prometheus text format, and net/http/pprof.
//
// Everything is stdlib-only and built for hot paths: recording a metric
// is one atomic add, opening a span is two time.Now calls and one short
// mutex hold at End, and the par worker hooks cost a single atomic
// pointer load when no phase is armed.
//
// Span taxonomy (all on one trace track; nesting is by time containment):
//
//	build                       whole BuildCtx / BuildAndIndexCtx call
//	  peel                      parallel core decomposition phase
//	    coredecomp.parallel     the kernel itself
//	      peel.round (k)        one level-synchronous peeling round
//	  rank+layout               Algorithm 1 ranking + shellidx build
//	    shellidx.build
//	  phcd                      PHCD construction phase
//	    phcd.parallel|serial    the kernel itself
//	      phcd.level (k)        one level of Algorithm 2
//	        phcd.step1..step4   the four barrier-separated steps
//	  index                     PBKS preprocessing (search.newindex)
//	  verify                    SelfVerify hierarchy validation
//	  fallback                  serial rebuild after a contained failure
//	search                      whole SearchReportCtx call
//	  search.primary            Type A/B kernel incl. tree accumulation
//	    search.typea|typeb
//	      treeaccum
//	  search.score              metric evaluation + argmax
//	serve.request               one hcdserve request (tagged with its ID)
//	  serve.request.wait        slow-path wait for an execution slot
//	                            (absent when admission was uncontended)
//	  serve.request.exec        handler execution (search/... nest here)
//
// Spans opened through the Ctx constructors carry the correlation tag of
// their context (see request.go): the exported trace gives each tag its
// own track, so request spans do not interleave with the build pipeline
// or with each other.
//
// The per-phase worker statistics are global (one armed phase at a time,
// innermost wins): concurrent pipelines in one process share the
// aggregation and the trace track, which blurs attribution but never
// corrupts it. The intended deployment — one build/search pipeline per
// process section — attributes exactly.
package obs

import "time"

// WorkerStats aggregates the execution of every par worker that ran
// while one phase was armed: how many worker stints there were, how many
// ran concurrently at the peak, how many dynamic chunks they processed,
// their summed busy time, and the longest single stint. A "stint" is one
// worker-goroutine activation of a par.For*/Run* call; a phase spanning
// several parallel calls counts each call's workers separately, so the
// stint count is a volume number, not a concurrency number — MaxWorkers
// is the concurrency number.
type WorkerStats struct {
	// Stints is the number of worker stints recorded.
	Stints int64
	// MaxWorkers is the high-water mark of concurrently active worker
	// stints — the true "how parallel did this phase actually run".
	MaxWorkers int64
	// Chunks is the total number of chunks the workers processed (one
	// per worker for the static primitives; the grabbed chunk count for
	// ForChunked).
	Chunks int64
	// Busy is the summed wall-clock busy time across all worker stints.
	Busy time.Duration
	// MaxBusy is the longest single worker stint.
	MaxBusy time.Duration
}

// Skew is the load-imbalance statistic max/mean: the longest worker
// stint divided by the mean stint. 1.0 is perfectly balanced; large
// values mean one worker carried the phase. 0 when nothing was recorded.
func (w WorkerStats) Skew() float64 {
	if w.Stints == 0 || w.Busy <= 0 {
		return 0
	}
	mean := float64(w.Busy) / float64(w.Stints)
	return float64(w.MaxBusy) / mean
}

// PhaseStat is one pipeline phase's contribution to a BuildReport or
// SearchReport: its wall-clock duration plus the worker statistics
// gathered while the phase was armed. Durations marshal as nanoseconds.
//
// The JSON field `stints` counts worker stints (earlier schema versions
// called this `workers`, which misread as a concurrency number);
// `max_workers` is the concurrent-worker high-water mark.
type PhaseStat struct {
	// Name identifies the phase (see the span taxonomy in the package
	// comment).
	Name string `json:"name"`
	// Duration is the phase's wall-clock time.
	Duration time.Duration `json:"duration_ns"`
	// Stints, MaxWorkers, Chunks, Busy and MaxBusy mirror WorkerStats;
	// zero when the phase ran no parallel primitives.
	Stints     int64         `json:"stints,omitempty"`
	MaxWorkers int64         `json:"max_workers,omitempty"`
	Chunks     int64         `json:"chunks,omitempty"`
	Busy       time.Duration `json:"busy_ns,omitempty"`
	MaxBusy    time.Duration `json:"max_busy_ns,omitempty"`
	// Skew is WorkerStats.Skew at phase end (max/mean worker busy time).
	Skew float64 `json:"skew,omitempty"`
	// AllocBytes, AllocObjects, GCCycles and GCPause are the allocator
	// movement across the phase (obs.MemDelta captured at the phase
	// boundaries); omitted from JSON when zero.
	AllocBytes   int64         `json:"alloc_bytes,omitempty"`
	AllocObjects int64         `json:"alloc_objects,omitempty"`
	GCCycles     int64         `json:"gc_cycles,omitempty"`
	GCPause      time.Duration `json:"gc_pause_ns,omitempty"`
}

// WorkerStats reconstructs the embedded worker statistics.
func (p PhaseStat) WorkerStats() WorkerStats {
	return WorkerStats{Stints: p.Stints, MaxWorkers: p.MaxWorkers, Chunks: p.Chunks, Busy: p.Busy, MaxBusy: p.MaxBusy}
}

// WithMem returns p with the phase's allocator movement filled in. A
// zero delta (a phase that allocated nothing) leaves every memory field
// zero, keeping the JSON unchanged.
func (p PhaseStat) WithMem(d MemDelta) PhaseStat {
	p.AllocBytes = d.AllocBytes
	p.AllocObjects = d.AllocObjects
	p.GCCycles = d.GCCycles
	p.GCPause = d.GCPause
	return p
}

// MemDelta reconstructs the embedded allocator movement.
func (p PhaseStat) MemDelta() MemDelta {
	return MemDelta{AllocBytes: p.AllocBytes, AllocObjects: p.AllocObjects, GCCycles: p.GCCycles, GCPause: p.GCPause}
}

// NewPhaseStat assembles a PhaseStat from a measured duration and the
// worker statistics of the phase.
func NewPhaseStat(name string, d time.Duration, w WorkerStats) PhaseStat {
	return PhaseStat{
		Name:       name,
		Duration:   d,
		Stints:     w.Stints,
		MaxWorkers: w.MaxWorkers,
		Chunks:     w.Chunks,
		Busy:       w.Busy,
		MaxBusy:    w.MaxBusy,
		Skew:       w.Skew(),
	}
}
