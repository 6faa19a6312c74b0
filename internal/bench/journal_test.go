package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hcd/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the journal schema golden file")

func TestMedianMAD(t *testing.T) {
	cases := []struct {
		in       []int64
		med, mad int64
	}{
		{nil, 0, 0},
		{[]int64{7}, 7, 0},
		{[]int64{1, 2, 3}, 2, 1},
		{[]int64{1, 2, 3, 4}, 2, 1},
		{[]int64{10, 10, 10, 100}, 10, 0},
		{[]int64{5, 1, 9, 3, 7}, 5, 2},
	}
	for _, c := range cases {
		med, mad := medianMAD(c.in)
		if med != c.med || mad != c.mad {
			t.Errorf("medianMAD(%v) = %d/%d, want %d/%d", c.in, med, mad, c.med, c.mad)
		}
	}
}

// syntheticReport builds a hand-crafted journal: a kernel that halves
// perfectly with threads over a serial baseline twice as slow, with one
// scalable and one stubbornly serial phase.
func syntheticReport() Report {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	phases := func(scalable, serial int64) []obs.PhaseStat {
		return []obs.PhaseStat{
			{Name: "peel", Duration: time.Duration(ms(scalable)), AllocBytes: 3 << 20},
			{Name: "index", Duration: time.Duration(ms(serial)), AllocBytes: 1 << 20},
		}
	}
	return Report{
		Experiment: "synthetic",
		Manifest:   Manifest{Schema: SchemaVersion},
		Threads:    []int{1, 2, 4},
		Reps:       1,
		Cells: []Cell{
			{Dataset: "d", Kernel: "base", Threads: 1, MinNS: ms(800), MedianNS: ms(800)},
			{Dataset: "d", Kernel: "k", Threads: 1, MinNS: ms(400), MedianNS: ms(400), Phases: phases(300, 100)},
			{Dataset: "d", Kernel: "k", Threads: 2, MinNS: ms(200), MedianNS: ms(200), Phases: phases(150, 100)},
			{Dataset: "d", Kernel: "k", Threads: 4, MinNS: ms(100), MedianNS: ms(100), Phases: phases(75, 100)},
		},
	}
}

func TestBuildScalingDerivesCurves(t *testing.T) {
	rep := syntheticReport()
	row := rep.buildScaling("d", "k", "base")
	near := func(got, want float64) bool { d := got - want; return d < 1e-9 && d > -1e-9 }
	if !near(row.Speedup[0], 1) || !near(row.Speedup[1], 2) || !near(row.Speedup[2], 4) {
		t.Errorf("self speedup = %v, want [1 2 4]", row.Speedup)
	}
	if !near(row.Efficiency[2], 1) {
		t.Errorf("efficiency at p=4 = %f, want 1", row.Efficiency[2])
	}
	if !near(row.SpeedupVsBaseline[0], 2) || !near(row.SpeedupVsBaseline[2], 8) {
		t.Errorf("vs-baseline speedup = %v, want [2 4 8]", row.SpeedupVsBaseline)
	}
	if !near(row.SerialFraction, 0) {
		t.Errorf("serial fraction of a perfect scaler = %f, want 0", row.SerialFraction)
	}
	if len(row.Phases) != 2 {
		t.Fatalf("phase rows = %d, want 2", len(row.Phases))
	}
	// peel scales perfectly; index does not move at all.
	if !near(row.Phases[0].SerialFraction, 0) {
		t.Errorf("peel serial fraction = %f, want 0", row.Phases[0].SerialFraction)
	}
	if !near(row.Phases[1].SerialFraction, 1) {
		t.Errorf("index serial fraction = %f, want 1", row.Phases[1].SerialFraction)
	}
	if !near(row.Phases[0].Share, 0.75) || !near(row.Phases[1].Share, 0.25) {
		t.Errorf("shares = %f/%f, want 0.75/0.25", row.Phases[0].Share, row.Phases[1].Share)
	}
	if row.Bottleneck != "index" {
		t.Errorf("bottleneck = %q, want index (the serial 25%% phase)", row.Bottleneck)
	}
	// Memory accounting: peel allocates 3 MiB of the 4 MiB total at p=1,
	// so it is the hungriest phase with a 75% allocation share.
	if row.Hungriest != "peel" {
		t.Errorf("hungriest = %q, want peel", row.Hungriest)
	}
	if !near(row.Phases[0].AllocShare, 0.75) || !near(row.Phases[1].AllocShare, 0.25) {
		t.Errorf("alloc shares = %f/%f, want 0.75/0.25", row.Phases[0].AllocShare, row.Phases[1].AllocShare)
	}
}

// TestMeasureMemCells pins the memory-pass cell shape: two cells per
// kernel (peak bytes, allocs per op), units attached, allocations
// divided by the per-op count.
func TestMeasureMemCells(t *testing.T) {
	var sink [][]byte
	cells := measureMemCells("d", "k", 2, 3, 4, func() {
		sink = append(sink, make([]byte, 1<<20))
	})
	_ = sink
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2 (peak + allocs)", len(cells))
	}
	peak, allocs := cells[0], cells[1]
	if peak.Kernel != "k.mem.peak" || peak.Unit != UnitBytes {
		t.Errorf("peak cell = %q unit %q, want k.mem.peak / bytes", peak.Kernel, peak.Unit)
	}
	if allocs.Kernel != "k.mem.allocs" || allocs.Unit != UnitAllocs {
		t.Errorf("allocs cell = %q unit %q, want k.mem.allocs / allocs", allocs.Kernel, allocs.Unit)
	}
	if peak.Threads != 2 || allocs.Threads != 2 {
		t.Errorf("threads = %d/%d, want 2", peak.Threads, allocs.Threads)
	}
	if len(peak.SamplesNS) != 3 || len(allocs.SamplesNS) != 3 {
		t.Errorf("samples = %d/%d, want 3 reps each", len(peak.SamplesNS), len(allocs.SamplesNS))
	}
	// Each rep allocates one 1 MiB slice (plus noise); the peak must see
	// at least that much live, and the per-op alloc count (divided by 4)
	// must stay small but positive.
	if peak.MinNS < 1<<20 {
		t.Errorf("peak heap = %d bytes, want >= 1 MiB (the live slice)", peak.MinNS)
	}
	if allocs.MinNS < 0 {
		t.Errorf("allocs per op = %d, want >= 0", allocs.MinNS)
	}
}

func TestBuildScalingWithoutBaselineOrPhases(t *testing.T) {
	rep := syntheticReport()
	row := rep.buildScaling("d", "base", "")
	if row.SpeedupVsBaseline != nil {
		t.Errorf("no-baseline row grew a vs-baseline curve: %v", row.SpeedupVsBaseline)
	}
	if row.SerialFraction != -1 {
		t.Errorf("single-point sweep serial fraction = %f, want -1", row.SerialFraction)
	}
	if row.Phases != nil || row.Bottleneck != "" {
		t.Errorf("uninstrumented row grew phases: %+v", row)
	}
	// Speedup slots for missing cells stay zeroed, slices stay aligned.
	if len(row.Speedup) != 3 || row.Speedup[1] != 0 || row.Speedup[2] != 0 {
		t.Errorf("missing-cell speedups = %v, want [1 0 0]", row.Speedup)
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"experiment":"phcd","manifest":{"schema":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Error("schema-1 journal accepted; want a loud rejection")
	}
	if _, err := ReadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestJournalSchemaGolden pins the journal's JSON field names and
// nesting: any drift in the serialised shape fails this test until the
// golden file is regenerated (go test ./internal/bench -run Golden
// -update) and SchemaVersion is bumped for breaking changes.
func TestJournalSchemaGolden(t *testing.T) {
	rep := Report{
		Experiment: "phcd",
		Manifest: Manifest{
			Schema: SchemaVersion, GitSHA: "0123456789abcdef", GoVersion: "go1.24",
			OS: "linux", Arch: "amd64", CPUModel: "Example CPU", NumCPU: 8, GoMaxProcs: 8,
			Scale: 4, Suite: "phcd-full-v1",
			CreatedAt: "2026-01-02T03:04:05Z",
		},
		Threads: []int{1, 2},
		Reps:    3,
		Cells: []Cell{{
			Dataset: "rmat17", Kernel: "build.index", Threads: 2,
			SamplesNS: []int64{1100, 1000, 1050}, MinNS: 1000, MedianNS: 1050, MADNS: 50,
			Phases: []obs.PhaseStat{{
				Name: "peel", Duration: 400, Stints: 4, MaxWorkers: 2,
				Chunks: 8, Busy: 700, MaxBusy: 390, Skew: 1.1,
				AllocBytes: 4096, AllocObjects: 12, GCCycles: 1, GCPause: 200,
			}},
		}, {
			Dataset: "rmat17", Kernel: "build.index.mem.peak", Threads: 2, Unit: UnitBytes,
			SamplesNS: []int64{2048, 2048, 2048}, MinNS: 2048, MedianNS: 2048, MADNS: 0,
		}},
		Scaling: []ScalingRow{{
			Dataset: "rmat17", Kernel: "build.index", Baseline: "lcps",
			Threads: []int{1, 2}, SpeedupVsBaseline: []float64{2, 4},
			Speedup: []float64{1, 2}, Efficiency: []float64{1, 1}, SerialFraction: 0,
			Phases: []PhaseScaling{{
				Name: "peel", Speedup: []float64{1, 2}, Efficiency: []float64{1, 1},
				SerialFraction: 0, Share: 1, AllocBytes: 4096, AllocShare: 1,
			}},
			Bottleneck: "peel",
			Hungriest:  "peel",
		}},
	}
	golden := filepath.Join("testdata", "journal_schema.golden")
	path := filepath.Join(t.TempDir(), "rep.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file unreadable (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal JSON schema drifted from the golden file.\nIf intentional: bump bench.SchemaVersion for breaking changes and regenerate with\n  go test ./internal/bench -run Golden -update\ngot:\n%s\nwant:\n%s", got, want)
	}
}
