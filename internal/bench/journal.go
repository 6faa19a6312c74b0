// The experiment journal: the machine-readable schema every sweep
// experiment (phcd, search) emits, the cell-measurement engine that
// fills it, and the derived scaling analysis (speedup, parallel
// efficiency, Amdahl serial-fraction fit, bottleneck phase). The
// journal is the unit of performance tracking: one Report per run,
// committed as BENCH_*.json, diffed PR-over-PR by Compare.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hcd/internal/obs"
)

// Cell is one measured (dataset, kernel, thread-count) combination. The
// harness repeats the measurement Reps times and keeps every sample:
// MinNS is the headline number (min-of-k, the classic low-noise
// estimator), MedianNS/MADNS are the robust location/spread pair the
// differential compare uses for its noise band.
type Cell struct {
	Dataset string `json:"dataset"`
	// Kernel names what ran, e.g. "phcd", "lcps", "pbks.typea". Memory
	// cells suffix the kernel they profile: "phcd.mem.peak",
	// "phcd.mem.allocs".
	Kernel string `json:"kernel"`
	// Threads is the worker count (1 for serial baselines).
	Threads int `json:"threads"`
	// Unit names what the samples measure when they are not wall-clock
	// nanoseconds: UnitBytes for peak-heap cells, UnitAllocs for
	// allocations-per-op cells. Empty means nanoseconds (the historical
	// default, which is why the sample fields keep their NS names).
	Unit string `json:"unit,omitempty"`
	// SamplesNS holds every repetition's measurement, in run order —
	// wall-clock nanoseconds unless Unit says otherwise.
	SamplesNS []int64 `json:"samples_ns"`
	// MinNS, MedianNS and MADNS summarise SamplesNS (MAD = median
	// absolute deviation from the median, a robust spread estimate).
	MinNS    int64 `json:"min_ns"`
	MedianNS int64 `json:"median_ns"`
	MADNS    int64 `json:"mad_ns"`
	// Phases is the per-phase breakdown for instrumented kernels
	// (min-of-reps per phase via obs.MinPhases); empty for plain cells.
	Phases []obs.PhaseStat `json:"phases,omitempty"`
}

// PhaseScaling is the thread-scaling analysis of one pipeline phase,
// derived from the instrumented cells of a sweep.
type PhaseScaling struct {
	Name string `json:"name"`
	// Speedup[i] is duration(p=1)/duration(threads[i]) for this phase;
	// Efficiency[i] is Speedup[i]/threads[i].
	Speedup    []float64 `json:"speedup"`
	Efficiency []float64 `json:"efficiency"`
	// SerialFraction is the Amdahl fit over this phase's sweep points
	// (obs.FitSerialFraction); -1 when the sweep cannot support a fit.
	SerialFraction float64 `json:"serial_fraction"`
	// Share is this phase's fraction of the p=1 total across phases.
	Share float64 `json:"share"`
	// AllocBytes is the phase's heap allocation at p=1 (from the
	// instrumented cells' memory accounting); AllocShare is its fraction
	// of the p=1 total across phases.
	AllocBytes int64   `json:"alloc_bytes,omitempty"`
	AllocShare float64 `json:"alloc_share,omitempty"`
}

// ScalingRow is the derived thread-scaling analysis for one (dataset,
// kernel): the paper-style speedup curve plus the quantities that say
// where scaling stops and why.
type ScalingRow struct {
	Dataset string `json:"dataset"`
	Kernel  string `json:"kernel"`
	// Baseline names the serial reference kernel (e.g. "lcps" for phcd,
	// "bks.typea" for pbks.typea); empty when the row is self-relative
	// only.
	Baseline string `json:"baseline,omitempty"`
	// Threads is the sweep, ascending; the per-p slices below align.
	Threads []int `json:"threads"`
	// SpeedupVsBaseline[i] = baseline(1 thread) / kernel(threads[i]) —
	// the paper's headline curves (PHCD over LCPS, PBKS over BKS).
	SpeedupVsBaseline []float64 `json:"speedup_vs_baseline,omitempty"`
	// Speedup[i] = kernel(1 thread) / kernel(threads[i]) — the
	// self-relative speedup; Efficiency[i] = Speedup[i]/threads[i].
	Speedup    []float64 `json:"speedup"`
	Efficiency []float64 `json:"efficiency"`
	// SerialFraction is the Amdahl fit over the self-relative sweep
	// (-1 when the sweep cannot support a fit, e.g. a single point).
	SerialFraction float64 `json:"serial_fraction"`
	// Phases is the per-phase scaling analysis, for instrumented rows.
	Phases []PhaseScaling `json:"phases,omitempty"`
	// Bottleneck names the phase that bounds scalability: the
	// largest-serial-fraction phase among those with ≥5% share at p=1.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Hungriest names the most allocation-hungry phase — the largest
	// AllocBytes at p=1 — the way Bottleneck names the phase that bounds
	// scaling. Empty when the cells carry no memory accounting.
	Hungriest string `json:"hungriest,omitempty"`
}

// Report is one experiment run: provenance manifest, raw cells, and the
// derived scaling rows. This is the shape of every committed
// BENCH_*.json and the input of Compare.
type Report struct {
	Experiment string   `json:"experiment"`
	Manifest   Manifest `json:"manifest"`
	// Threads is the thread sweep the run used, ascending.
	Threads []int `json:"threads"`
	// Reps is the repetition count per cell.
	Reps    int          `json:"reps"`
	Cells   []Cell       `json:"cells"`
	Scaling []ScalingRow `json:"scaling,omitempty"`
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshalling report: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}

// ReadReport loads a journal file, rejecting schema generations this
// harness does not speak.
func ReadReport(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("bench: %w", err)
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return Report{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Manifest.Schema != SchemaVersion {
		return Report{}, fmt.Errorf("bench: %s has journal schema %d, this harness speaks %d — regenerate it with benchtab",
			path, r.Manifest.Schema, SchemaVersion)
	}
	return r, nil
}

// Cell lookups are by (dataset, kernel, threads).
func (r Report) cell(dataset, kernel string, threads int) *Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Dataset == dataset && c.Kernel == kernel && c.Threads == threads {
			return c
		}
	}
	return nil
}

// measureCellSpan is measureCell wrapped in the journal's bench.cell
// trace span (arg = thread count, so traces show sweep progress) and
// counted in hcd_bench_cells_total. Every experiment's cells go through
// here — the single span literal keeps trace attribution unambiguous.
func measureCellSpan(dataset, kernel string, threads, reps int, f func()) Cell {
	sp := obs.StartSpanArg("bench.cell", int64(threads))
	defer sp.End()
	benchCells.Inc()
	return measureCell(dataset, kernel, threads, reps, f)
}

// Units a Cell's samples can carry besides the default nanoseconds.
const (
	// UnitBytes marks a peak-heap cell: each sample is the heap-objects
	// high-water mark (bytes) observed during one repetition.
	UnitBytes = "bytes"
	// UnitAllocs marks an allocation-volume cell: each sample is the
	// heap objects allocated per operation.
	UnitAllocs = "allocs"
)

// measureMemCells profiles f's memory behaviour: reps repetitions in a
// pass separate from the timing cells — the forced GC per rep and the
// heap-polling watcher must never sit inside a wall-clock sample — and
// two cells out: <kernel>.mem.peak (UnitBytes, the heap-objects
// high-water mark while f ran) and <kernel>.mem.allocs (UnitAllocs,
// heap objects allocated per operation; per is the operation count one
// f call performs, 1 for whole-pipeline cells). MinNS/MedianNS/MADNS
// summarise the samples exactly as for timing cells, so the compare
// gate's MAD noise band applies unchanged.
func measureMemCells(dataset, kernel string, threads, reps, per int, f func()) []Cell {
	sp := obs.StartSpanArg("bench.memcell", int64(threads))
	defer sp.End()
	if reps < 1 {
		reps = 1
	}
	if per < 1 {
		per = 1
	}
	peaks := make([]int64, 0, reps)
	allocs := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		// Start each rep from a collected heap so the peak measures this
		// repetition's working set, not the previous rep's garbage.
		runtime.GC()
		stopWatch := startPeakWatch()
		m0 := obs.ReadMem()
		f()
		d := obs.ReadMem().Sub(m0)
		peaks = append(peaks, stopWatch())
		allocs = append(allocs, d.AllocObjects/int64(per))
	}
	// Leave a freshly collected heap behind: the pass's extra operations
	// grow the GC pacing target, and without this collection the *next*
	// timing sweep inherits that state and absorbs a GC it would not
	// otherwise have run — visible as a spurious regression on
	// sub-millisecond cells.
	runtime.GC()
	mk := func(suffix, unit string, samples []int64) Cell {
		benchCells.Inc()
		c := Cell{Dataset: dataset, Kernel: kernel + suffix, Threads: threads, Unit: unit, SamplesNS: samples}
		c.MinNS = minInt64(samples)
		c.MedianNS, c.MADNS = medianMAD(samples)
		return c
	}
	return []Cell{
		mk(".mem.peak", UnitBytes, peaks),
		mk(".mem.allocs", UnitAllocs, allocs),
	}
}

// startPeakWatch starts a goroutine polling the instantaneous
// heap-objects reading every millisecond; the returned stop function
// halts it and reports the high-water mark, folding in one final
// reading so operations shorter than a poll tick still register their
// end-state heap.
func startPeakWatch() (stop func() int64) {
	var peak atomic.Int64
	peak.Store(obs.HeapObjectsBytes())
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v := obs.HeapObjectsBytes(); v > peak.Load() {
					peak.Store(v)
				}
			}
		}
	}()
	return func() int64 {
		close(done)
		<-exited
		if v := obs.HeapObjectsBytes(); v > peak.Load() {
			peak.Store(v)
		}
		return peak.Load()
	}
}

// measureCell times f Reps times and assembles the cell.
func measureCell(dataset, kernel string, threads, reps int, f func()) Cell {
	if reps < 1 {
		reps = 1
	}
	samples := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		samples = append(samples, time.Since(start).Nanoseconds())
	}
	c := Cell{Dataset: dataset, Kernel: kernel, Threads: threads, SamplesNS: samples}
	c.MinNS = minInt64(samples)
	c.MedianNS, c.MADNS = medianMAD(samples)
	return c
}

func minInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// medianMAD returns the median and the median absolute deviation of xs
// (both 0 for an empty slice). MAD is the robust spread estimate the
// compare's noise band builds on: unlike stddev it does not blow up on
// the occasional GC-hit outlier rep.
func medianMAD(xs []int64) (med, mad int64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	med = sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		med = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	dev := make([]int64, len(sorted))
	for i, x := range sorted {
		d := x - med
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	sort.Slice(dev, func(i, j int) bool { return dev[i] < dev[j] })
	mad = dev[len(dev)/2]
	if len(dev)%2 == 0 {
		mad = (dev[len(dev)/2-1] + dev[len(dev)/2]) / 2
	}
	return med, mad
}

// buildScaling derives one kernel's scaling row from the report's
// cells: self-relative speedup/efficiency per sweep point, the Amdahl
// serial-fraction fit, the optional vs-baseline curve, and — when the
// kernel's cells carry phase breakdowns — the per-phase analysis with
// the bottleneck call.
func (r Report) buildScaling(dataset, kernel, baseline string) ScalingRow {
	row := ScalingRow{Dataset: dataset, Kernel: kernel, Baseline: baseline, Threads: r.Threads, SerialFraction: -1}
	self1 := r.cell(dataset, kernel, 1)
	var base *Cell
	if baseline != "" {
		base = r.cell(dataset, baseline, 1)
	}
	var points []obs.ScalingPoint
	for _, p := range r.Threads {
		c := r.cell(dataset, kernel, p)
		if c == nil {
			row.Speedup = append(row.Speedup, 0)
			row.Efficiency = append(row.Efficiency, 0)
			if base != nil {
				row.SpeedupVsBaseline = append(row.SpeedupVsBaseline, 0)
			}
			continue
		}
		points = append(points, obs.ScalingPoint{Threads: p, Duration: time.Duration(c.MinNS)})
		var sp float64
		if self1 != nil {
			sp = obs.Speedup(time.Duration(self1.MinNS), time.Duration(c.MinNS))
		}
		row.Speedup = append(row.Speedup, sp)
		row.Efficiency = append(row.Efficiency, obs.Efficiency(sp, p))
		if base != nil {
			row.SpeedupVsBaseline = append(row.SpeedupVsBaseline,
				obs.Speedup(time.Duration(base.MinNS), time.Duration(c.MinNS)))
		}
	}
	row.SerialFraction = obs.FitSerialFraction(points)
	row.Phases, row.Bottleneck, row.Hungriest = r.buildPhaseScaling(dataset, kernel)
	return row
}

// buildPhaseScaling computes per-phase speedup/efficiency/serial
// fraction from the instrumented cells of one kernel sweep, and names
// two phases: the bottleneck — the phase whose Amdahl serial fraction
// is largest among phases carrying at least 5% of the p=1 time (tiny
// phases can be perfectly serial without ever bounding anything) — and
// the hungriest, the phase allocating the most heap bytes at p=1
// (empty when the cells carry no memory accounting).
func (r Report) buildPhaseScaling(dataset, kernel string) ([]PhaseScaling, string, string) {
	c1 := r.cell(dataset, kernel, 1)
	if c1 == nil || len(c1.Phases) == 0 {
		return nil, "", ""
	}
	var total1 time.Duration
	var totalAlloc1 int64
	for _, ph := range c1.Phases {
		total1 += ph.Duration
		totalAlloc1 += ph.AllocBytes
	}
	phaseAt := func(threads int, name string) (obs.PhaseStat, bool) {
		c := r.cell(dataset, kernel, threads)
		if c == nil {
			return obs.PhaseStat{}, false
		}
		for _, ph := range c.Phases {
			if ph.Name == name {
				return ph, true
			}
		}
		return obs.PhaseStat{}, false
	}
	var out []PhaseScaling
	bottleneck, worst := "", -1.0
	hungriest, most := "", int64(0)
	for _, ph1 := range c1.Phases {
		ps := PhaseScaling{Name: ph1.Name, SerialFraction: -1, AllocBytes: ph1.AllocBytes}
		if total1 > 0 {
			ps.Share = float64(ph1.Duration) / float64(total1)
		}
		if totalAlloc1 > 0 {
			ps.AllocShare = float64(ph1.AllocBytes) / float64(totalAlloc1)
		}
		if ph1.AllocBytes > most {
			most = ph1.AllocBytes
			hungriest = ph1.Name
		}
		var points []obs.ScalingPoint
		for _, p := range r.Threads {
			ph, ok := phaseAt(p, ph1.Name)
			if !ok {
				ps.Speedup = append(ps.Speedup, 0)
				ps.Efficiency = append(ps.Efficiency, 0)
				continue
			}
			points = append(points, obs.ScalingPoint{Threads: p, Duration: ph.Duration})
			sp := obs.Speedup(ph1.Duration, ph.Duration)
			ps.Speedup = append(ps.Speedup, sp)
			ps.Efficiency = append(ps.Efficiency, obs.Efficiency(sp, p))
		}
		ps.SerialFraction = obs.FitSerialFraction(points)
		out = append(out, ps)
		if ps.Share >= 0.05 && ps.SerialFraction > worst {
			worst = ps.SerialFraction
			bottleneck = ps.Name
		}
	}
	if worst < 0 {
		bottleneck = ""
	}
	return out, bottleneck, hungriest
}
