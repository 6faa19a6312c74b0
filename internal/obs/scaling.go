// Scaling analysis over phase statistics: the quantities the paper's
// evaluation (§V) reads off its thread sweeps — speedup, parallel
// efficiency, and an Amdahl serial-fraction fit — computed from the
// PhaseStat breakdowns the pipeline already reports.
package obs

import "time"

// ScalingPoint is one cell of a thread sweep: the wall-clock duration a
// kernel (or one phase of it) took at a given thread count.
type ScalingPoint struct {
	// Threads is the worker count the cell ran with (>= 1).
	Threads int `json:"threads"`
	// Duration is the cell's measured wall-clock time.
	Duration time.Duration `json:"duration_ns"`
}

// Speedup is the ratio base/at: how many times faster `at` is than
// `base`. 0 when either duration is non-positive.
func Speedup(base, at time.Duration) float64 {
	if base <= 0 || at <= 0 {
		return 0
	}
	return float64(base) / float64(at)
}

// Efficiency is the parallel efficiency speedup/threads: 1.0 is perfect
// linear scaling, lower means wasted cores. 0 for threads < 1.
func Efficiency(speedup float64, threads int) float64 {
	if threads < 1 {
		return 0
	}
	return speedup / float64(threads)
}

// FitSerialFraction fits Amdahl's law T(p) = T(1)·(s + (1-s)/p) to a
// thread sweep by least squares and returns the serial fraction s,
// clamped to [0, 1]. s bounds the achievable speedup at 1/s: a phase
// with s = 0.5 can never run more than 2x faster however many threads
// are added, which is what makes the per-phase fit the scalability
// bottleneck detector. The fit needs a p=1 point and at least one p>1
// point; it returns -1 when the sweep cannot support a fit (no p=1
// point, no p>1 points, or non-positive durations).
func FitSerialFraction(points []ScalingPoint) float64 {
	var t1 time.Duration
	for _, pt := range points {
		if pt.Threads == 1 {
			t1 = pt.Duration
		}
	}
	if t1 <= 0 {
		return -1
	}
	// With x_p = 1 - 1/p, Amdahl rearranges to
	//   T(p) - T(1)/p = s · T(1) · x_p,
	// a one-parameter regression through the origin: s = Σ x·y / Σ x².
	var num, den float64
	for _, pt := range points {
		if pt.Threads <= 1 || pt.Duration <= 0 {
			continue
		}
		p := float64(pt.Threads)
		x := (1 - 1/p) * float64(t1)
		y := float64(pt.Duration) - float64(t1)/p
		num += x * y
		den += x * x
	}
	if den == 0 {
		return -1
	}
	s := num / den
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// MinPhases folds repeated runs' phase breakdowns into one min-of-k
// breakdown: phases are matched by name, each keeps the statistics of
// its fastest occurrence (minimum duration — the same estimator the
// harness's timing cells use), and the result preserves the phase order
// of the first run, appending phases later runs introduce (a fallback
// phase that only fired in one rep still shows up). Runs may differ in
// phase sets; nil input yields nil.
func MinPhases(runs [][]PhaseStat) []PhaseStat {
	var order []string
	best := map[string]PhaseStat{}
	for _, run := range runs {
		for _, p := range run {
			prev, seen := best[p.Name]
			if !seen {
				order = append(order, p.Name)
				best[p.Name] = p
				continue
			}
			if p.Duration < prev.Duration {
				best[p.Name] = p
			}
		}
	}
	if len(order) == 0 {
		return nil
	}
	out := make([]PhaseStat, 0, len(order))
	for _, name := range order {
		out = append(out, best[name])
	}
	return out
}
