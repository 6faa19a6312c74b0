// Noise-aware differential comparison of two experiment journals: the
// engine behind `benchtab -compare old.json new.json` and the CI
// perf-smoke gate. Every cell pair is classified improved / regressed /
// noise against a MAD-derived noise band, and the verdict is suppressed
// entirely when the manifests prove the runs are not comparable.
package bench

import (
	"fmt"
	"math"
	"strings"
)

// DeltaClass classifies one cell's old→new movement.
type DeltaClass string

const (
	// DeltaImproved / DeltaRegressed: the min-of-k moved beyond the noise
	// band in the respective direction.
	DeltaImproved  DeltaClass = "improved"
	DeltaRegressed DeltaClass = "regressed"
	// DeltaNoise: the movement stayed inside the band.
	DeltaNoise DeltaClass = "noise"
	// DeltaAdded / DeltaRemoved: the cell exists on only one side.
	DeltaAdded   DeltaClass = "added"
	DeltaRemoved DeltaClass = "removed"
)

// madToSigma converts a median absolute deviation to a stddev-equivalent
// spread (the 1.4826 factor is exact for normal noise).
const madToSigma = 1.4826

// bandFloor is the minimum relative noise band: below 2% we refuse to
// call anything a confirmed movement no matter how tight the MAD says
// the samples were — with min-of-k on small rep counts the spread
// estimate itself is noisy.
const bandFloor = 0.02

// CellDelta is the classified comparison of one (dataset, kernel,
// threads) cell across two journals.
type CellDelta struct {
	Dataset string `json:"dataset"`
	Kernel  string `json:"kernel"`
	Threads int    `json:"threads"`
	// Unit is the cells' measurement unit (empty = nanoseconds; see
	// Cell.Unit). Memory cells classify with the same MAD noise band as
	// timing cells — only the rendering differs.
	Unit string `json:"unit,omitempty"`
	// OldMinNS / NewMinNS are the min-of-k measurements being compared
	// (zero on the side where the cell is absent), in Unit.
	OldMinNS int64 `json:"old_min_ns"`
	NewMinNS int64 `json:"new_min_ns"`
	// Ratio is new/old of the min times (0 when either side is absent).
	Ratio float64 `json:"ratio"`
	// Band is the relative noise half-width the classification used:
	// max(floor, 3σ of the combined relative MAD spread of both sides).
	Band  float64    `json:"band"`
	Class DeltaClass `json:"class"`
}

// Comparison is the full old-vs-new verdict.
type Comparison struct {
	// OldManifest / NewManifest are the two runs' provenance records.
	OldManifest Manifest `json:"old_manifest"`
	NewManifest Manifest `json:"new_manifest"`
	// Comparable is false when the manifests differ on a dimension that
	// moves nanoseconds; Reasons lists each mismatch. An incomparable
	// pair still gets its deltas computed — they are rendered as
	// informational, and HasRegressions never fires on them.
	Comparable bool     `json:"comparable"`
	Reasons    []string `json:"reasons,omitempty"`
	// Deltas classifies every cell appearing in either journal.
	Deltas []CellDelta `json:"deltas"`
}

// Compare classifies every cell of two journals. Cells are matched by
// (dataset, kernel, threads); each delta's noise band combines both
// sides' MAD-derived relative spread, so a run with jittery samples
// needs a proportionally larger movement to confirm anything.
func Compare(old, new Report) Comparison {
	c := Comparison{
		OldManifest: old.Manifest,
		NewManifest: new.Manifest,
		Reasons:     old.Manifest.ComparableTo(new.Manifest),
	}
	c.Comparable = len(c.Reasons) == 0
	seen := map[string]bool{}
	key := func(cell Cell) string {
		return fmt.Sprintf("%s\x00%s\x00%d", cell.Dataset, cell.Kernel, cell.Threads)
	}
	for _, oc := range old.Cells {
		seen[key(oc)] = true
		nc := new.cell(oc.Dataset, oc.Kernel, oc.Threads)
		d := CellDelta{Dataset: oc.Dataset, Kernel: oc.Kernel, Threads: oc.Threads, Unit: oc.Unit, OldMinNS: oc.MinNS}
		if nc == nil {
			d.Class = DeltaRemoved
			c.Deltas = append(c.Deltas, d)
			continue
		}
		d.NewMinNS = nc.MinNS
		d.Band = noiseBand(oc, *nc)
		if oc.MinNS > 0 {
			d.Ratio = float64(nc.MinNS) / float64(oc.MinNS)
		}
		switch {
		case d.Ratio == 0:
			d.Class = DeltaNoise
		case d.Ratio > 1+d.Band:
			d.Class = DeltaRegressed
		case d.Ratio < 1-d.Band:
			d.Class = DeltaImproved
		default:
			d.Class = DeltaNoise
		}
		c.Deltas = append(c.Deltas, d)
	}
	for _, nc := range new.Cells {
		if seen[key(nc)] {
			continue
		}
		c.Deltas = append(c.Deltas, CellDelta{
			Dataset: nc.Dataset, Kernel: nc.Kernel, Threads: nc.Threads,
			Unit: nc.Unit, NewMinNS: nc.MinNS, Class: DeltaAdded,
		})
	}
	return c
}

// noiseBand derives the relative half-width for one cell pair: three
// combined sigmas of the two sides' MAD-based relative spread, floored
// at bandFloor.
func noiseBand(old, new Cell) float64 {
	rel := func(c Cell) float64 {
		if c.MedianNS <= 0 {
			return 0
		}
		return madToSigma * float64(c.MADNS) / float64(c.MedianNS)
	}
	ro, rn := rel(old), rel(new)
	band := 3 * math.Sqrt(ro*ro+rn*rn)
	if band < bandFloor {
		band = bandFloor
	}
	return band
}

// Count returns how many deltas carry the given class.
func (c Comparison) Count(class DeltaClass) int {
	n := 0
	for _, d := range c.Deltas {
		if d.Class == class {
			n++
		}
	}
	return n
}

// HasRegressions reports whether the comparison confirms at least one
// regression. Always false for incomparable manifests: a mismatch in
// hardware or toolchain explains any movement, so no delta can be
// blamed on the code.
func (c Comparison) HasRegressions() bool {
	return c.Comparable && c.Count(DeltaRegressed) > 0
}

// Markdown renders the comparison as a report. It leads with the
// manifest-diff summary — git SHA, CPU, toolchain and suite, side by
// side with mismatches flagged — and the gate status, so
// a report that does not gate says up front *why* (which runner
// dimension broke comparability) before any delta numbers appear.
func (c Comparison) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Benchmark comparison\n\n")

	// Manifest diff: every dimension the gate decision hangs on.
	row := func(name, oldV, newV string, gates bool) {
		mark := ""
		if gates && oldV != newV {
			mark = " ⚠"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |%s\n", name, oldV, newV, mark)
	}
	o, n := c.OldManifest, c.NewManifest
	fmt.Fprintf(&b, "| | old | new |\n|---|---|---|\n")
	row("git", short(o.GitSHA), short(n.GitSHA), false)
	row("cpu", fmt.Sprintf("%dx %s (GOMAXPROCS %d)", o.NumCPU, orUnknown(o.CPUModel), o.GoMaxProcs),
		fmt.Sprintf("%dx %s (GOMAXPROCS %d)", n.NumCPU, orUnknown(n.CPUModel), n.GoMaxProcs), true)
	row("toolchain", o.GoVersion+" "+o.OS+"/"+o.Arch, n.GoVersion+" "+n.OS+"/"+n.Arch, true)
	row("suite", fmt.Sprintf("%s scale %d (schema %d)", o.Suite, o.Scale, o.Schema),
		fmt.Sprintf("%s scale %d (schema %d)", n.Suite, n.Scale, n.Schema), true)
	fmt.Fprintln(&b)
	if c.Comparable {
		fmt.Fprintf(&b, "**Gate: active** — the manifests agree on every dimension that moves measurements.\n\n")
	} else {
		fmt.Fprintf(&b, "**Gate: informational only** — the runs are not comparable, so no delta below can block:\n\n")
		for _, r := range c.Reasons {
			fmt.Fprintf(&b, "- %s\n", r)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "**%d improved, %d regressed, %d within noise**",
		c.Count(DeltaImproved), c.Count(DeltaRegressed), c.Count(DeltaNoise))
	if a, r := c.Count(DeltaAdded), c.Count(DeltaRemoved); a > 0 || r > 0 {
		fmt.Fprintf(&b, " (%d added, %d removed)", a, r)
	}
	fmt.Fprintf(&b, "\n\n")
	fmt.Fprintf(&b, "| dataset | kernel | p | old | new | Δ | band | class |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|---|\n")
	for _, d := range c.Deltas {
		oldS, newS, delta := "-", "-", "-"
		if d.OldMinNS > 0 {
			oldS = fmtSample(d.OldMinNS, d.Unit)
		}
		if d.NewMinNS > 0 {
			newS = fmtSample(d.NewMinNS, d.Unit)
		}
		if d.Ratio > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(d.Ratio-1))
		}
		class := string(d.Class)
		switch d.Class {
		case DeltaRegressed:
			class = "**regressed**"
		case DeltaImproved:
			class = "*improved*"
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %s | %s | %s | ±%.1f%% | %s |\n",
			d.Dataset, d.Kernel, d.Threads, oldS, newS, delta, 100*d.Band, class)
	}
	return b.String()
}

// short truncates a git SHA for the manifest-diff table.
func short(sha string) string {
	if sha == "" {
		return "unknown"
	}
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// orUnknown substitutes a placeholder for an empty best-effort field.
func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
