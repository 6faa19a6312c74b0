package bench

import (
	"strings"
	"testing"
)

// cmpReports builds an old/new journal pair with identical manifests
// and the given cells.
func cmpReports(oldCells, newCells []Cell) (Report, Report) {
	m := Manifest{Schema: SchemaVersion, GoVersion: "go1.24", OS: "linux", Arch: "amd64",
		NumCPU: 8, GoMaxProcs: 8, Scale: 4, Suite: "phcd-full-v1"}
	return Report{Experiment: "phcd", Manifest: m, Cells: oldCells},
		Report{Experiment: "phcd", Manifest: m, Cells: newCells}
}

// tightCell has negligible MAD, so classification is governed by the 2%
// band floor.
func tightCell(kernel string, threads int, minNS int64) Cell {
	return Cell{Dataset: "d", Kernel: kernel, Threads: threads,
		MinNS: minNS, MedianNS: minNS, MADNS: 0}
}

func TestCompareClassifiesEveryCell(t *testing.T) {
	old, new := cmpReports(
		[]Cell{
			tightCell("steady", 1, 1_000_000),
			tightCell("faster", 1, 1_000_000),
			tightCell("slower", 1, 1_000_000),
			tightCell("gone", 1, 1_000_000),
		},
		[]Cell{
			tightCell("steady", 1, 1_010_000), // +1%: inside the 2% floor
			tightCell("faster", 1, 800_000),   // -20%
			tightCell("slower", 1, 1_300_000), // +30%
			tightCell("fresh", 1, 500_000),
		},
	)
	c := Compare(old, new)
	if !c.Comparable || len(c.Reasons) != 0 {
		t.Fatalf("identical manifests judged incomparable: %v", c.Reasons)
	}
	want := map[string]DeltaClass{
		"steady": DeltaNoise, "faster": DeltaImproved, "slower": DeltaRegressed,
		"gone": DeltaRemoved, "fresh": DeltaAdded,
	}
	if len(c.Deltas) != len(want) {
		t.Fatalf("deltas = %d, want %d (every cell classified)", len(c.Deltas), len(want))
	}
	for _, d := range c.Deltas {
		if d.Class != want[d.Kernel] {
			t.Errorf("%s classified %s, want %s (ratio %.3f band %.3f)",
				d.Kernel, d.Class, want[d.Kernel], d.Ratio, d.Band)
		}
	}
	if !c.HasRegressions() {
		t.Error("confirmed regression not reported")
	}
}

func TestCompareNoiseBandWidensWithMAD(t *testing.T) {
	// 10% movement with 0 MAD is a confirmed regression; the same
	// movement with a jittery baseline (rel MAD ~5% → band ~22%) is noise.
	noisy := tightCell("k", 1, 1_000_000)
	noisy.MADNS = 50_000
	old1, new1 := cmpReports([]Cell{tightCell("k", 1, 1_000_000)}, []Cell{tightCell("k", 1, 1_100_000)})
	if c := Compare(old1, new1); c.Deltas[0].Class != DeltaRegressed {
		t.Errorf("tight +10%% = %s, want regressed", c.Deltas[0].Class)
	}
	old2, new2 := cmpReports([]Cell{noisy}, []Cell{tightCell("k", 1, 1_100_000)})
	if c := Compare(old2, new2); c.Deltas[0].Class != DeltaNoise {
		t.Errorf("jittery +10%% = %s (band %.3f), want noise", c.Deltas[0].Class, c.Deltas[0].Band)
	}
}

func TestCompareIncomparableManifestsNeverGate(t *testing.T) {
	old, new := cmpReports([]Cell{tightCell("k", 1, 1_000_000)}, []Cell{tightCell("k", 1, 2_000_000)})
	new.Manifest.CPUModel = "Different CPU"
	c := Compare(old, new)
	if c.Comparable {
		t.Fatal("different cpu models judged comparable")
	}
	if c.Deltas[0].Class != DeltaRegressed {
		t.Errorf("delta still classified for information: got %s", c.Deltas[0].Class)
	}
	if c.HasRegressions() {
		t.Error("incomparable runs must never gate")
	}
	md := c.Markdown()
	if !strings.Contains(md, "Gate: informational only") || !strings.Contains(md, "cpu model differs") {
		t.Errorf("markdown missing incomparability notice:\n%s", md)
	}
	// The manifest-diff lead must flag the mismatched dimension and show
	// both sides, so the report says up front why it does not gate.
	if !strings.Contains(md, "Different CPU") || !strings.Contains(md, "⚠") {
		t.Errorf("markdown missing flagged manifest diff:\n%s", md)
	}
}

func TestCompareMarkdownManifestDiffLeads(t *testing.T) {
	old, new := cmpReports([]Cell{tightCell("k", 1, 1_000_000)}, []Cell{tightCell("k", 1, 1_000_000)})
	md := Compare(old, new).Markdown()
	for _, want := range []string{"| | old | new |", "| toolchain |", "Gate: active"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing manifest-diff element %q:\n%s", want, md)
		}
	}
	// Comparable runs carry no warning marks.
	if strings.Contains(md, "⚠") {
		t.Errorf("comparable manifests must not flag any row:\n%s", md)
	}
	// The diff summary must appear before the delta table.
	if strings.Index(md, "| | old | new |") > strings.Index(md, "| dataset |") {
		t.Errorf("manifest diff must lead the report:\n%s", md)
	}
}

func TestCompareMemoryCellUnits(t *testing.T) {
	mem := tightCell("phcd.mem.peak", 8, 1<<30)
	mem.Unit = UnitBytes
	grown := tightCell("phcd.mem.peak", 8, 1<<30+1<<29)
	grown.Unit = UnitBytes
	old, new := cmpReports([]Cell{mem}, []Cell{grown})
	c := Compare(old, new)
	if c.Deltas[0].Class != DeltaRegressed {
		t.Fatalf("memory growth beyond the band = %s, want regressed", c.Deltas[0].Class)
	}
	if c.Deltas[0].Unit != UnitBytes {
		t.Fatalf("delta lost the cell unit: %q", c.Deltas[0].Unit)
	}
	md := c.Markdown()
	if !strings.Contains(md, "1.00GiB") || !strings.Contains(md, "1.50GiB") {
		t.Errorf("markdown must render byte cells as sizes, not seconds:\n%s", md)
	}
}

func TestCompareMarkdownTable(t *testing.T) {
	old, new := cmpReports(
		[]Cell{tightCell("phcd", 2, 1_000_000)},
		[]Cell{tightCell("phcd", 2, 700_000)},
	)
	md := Compare(old, new).Markdown()
	for _, want := range []string{
		"# Benchmark comparison",
		"1 improved, 0 regressed, 0 within noise",
		"| d | phcd | 2 |",
		"-30.0%",
		"*improved*",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
