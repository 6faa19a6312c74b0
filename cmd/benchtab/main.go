// Command benchtab regenerates the paper's evaluation tables and figures
// (§V) on the synthetic dataset suite, runs the scaling-sweep journal
// experiments, and compares recorded journals.
//
// Usage:
//
//	benchtab -exp table3                 # one experiment
//	benchtab -exp all -scale 4 -reps 3   # the full evaluation
//	benchtab -exp fig4 -sweep 1,2,4,8 -datasets AS,LJ,H
//	benchtab -exp phcd -threads 1,2,4,8 -json BENCH_phcd.json
//	benchtab -exp phcd -kernels buffered,hindex -threads 1,2,4,8
//	benchtab -exp search -threads 1,2,4 -json BENCH_search.json
//	benchtab -exp serve -threads 1,2,4 -json BENCH_serve.json
//	benchtab -compare old.json new.json -report report.md -gate
//
// Experiments: table2 table3 table4 table5 fig4 fig5 fig6 fig7 fig8 fig9
// fig10 ablation maintenance phcd search serve. See DESIGN.md for what each
// reproduces and EXPERIMENTS.md for recorded results and the per-figure
// command table.
//
// Compare mode loads two experiment journals, classifies every cell
// improved / regressed / within-noise against a MAD-derived noise band,
// and prints a markdown report. With -gate the process exits 3 when the
// journals' manifests are comparable and at least one regression is
// confirmed beyond the band; incomparable journals (different hardware
// or toolchain) never gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hcd/internal/bench"
	"hcd/internal/coredecomp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the harness with explicit streams and returns an exit code;
// main is a thin wrapper so tests can drive it in-process. Exit codes:
// 0 success, 1 experiment failure, 2 usage, 3 gated perf regression.
func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	flag.SetOutput(stderr)
	exp := flag.String("exp", "all", "experiment name or 'all'")
	scale := flag.Int("scale", 4, "dataset scale multiplier")
	threads := flag.String("threads", "", "thread count, or a comma-separated sweep (threads, or clients for serve) for the journal experiments (default GOMAXPROCS)")
	reps := flag.Int("reps", 3, "timing repetitions (minimum reported)")
	sweep := flag.String("sweep", "", "comma-separated thread sweep for figures (default 1,2,4,..,GOMAXPROCS)")
	datasets := flag.String("datasets", "", "comma-separated dataset abbreviations (default all ten)")
	kernels := flag.String("kernels", "", "comma-separated peeling kernels for the phcd sweep: levelsync,buffered,hindex (default all)")
	jsonPath := flag.String("json", "", "write a machine-readable journal here (experiments that support it: phcd, search, serve)")
	compare := flag.String("compare", "", "baseline journal: compare the candidate journal (positional argument) against it")
	reportPath := flag.String("report", "", "with -compare: also write the markdown report to this file")
	gate := flag.Bool("gate", false, "with -compare: exit 3 on a confirmed regression between comparable runs")
	if err := flag.Parse(args); err != nil {
		return 2
	}

	if *compare != "" {
		// The candidate journal is positional (benchtab -compare old new
		// [-report x -gate]); stdlib flag stops at the first positional, so
		// re-parse anything after it to keep trailing flags working.
		rest := flag.Args()
		if len(rest) == 0 {
			fmt.Fprintln(stderr, "benchtab: -compare needs a candidate journal: benchtab -compare old.json new.json")
			return 2
		}
		candidate := rest[0]
		if err := flag.Parse(rest[1:]); err != nil {
			return 2
		}
		if flag.NArg() != 0 {
			fmt.Fprintf(stderr, "benchtab: unexpected arguments after the candidate journal: %v\n", flag.Args())
			return 2
		}
		return runCompare(*compare, candidate, *reportPath, *gate, stdout, stderr)
	}

	cfg := bench.Config{
		Scale:    *scale,
		Reps:     *reps,
		Out:      stdout,
		JSONPath: *jsonPath,
	}
	list, err := parseThreadList(*threads)
	if err != nil {
		fmt.Fprintf(stderr, "benchtab: %v\n", err)
		return 2
	}
	switch len(list) {
	case 0:
	case 1:
		cfg.Threads = list[0]
	default:
		cfg.Sweep = list
		for _, t := range list {
			if t > cfg.Threads {
				cfg.Threads = t
			}
		}
	}
	if *sweep != "" {
		cfg.Sweep, err = parseThreadList(*sweep)
		if err != nil || len(cfg.Sweep) == 0 {
			fmt.Fprintf(stderr, "benchtab: bad -sweep %q\n", *sweep)
			return 2
		}
	}
	if *datasets != "" {
		for _, part := range strings.Split(*datasets, ",") {
			cfg.Datasets = append(cfg.Datasets, strings.TrimSpace(part))
		}
	}
	if *kernels != "" {
		for _, part := range strings.Split(*kernels, ",") {
			name := strings.TrimSpace(part)
			if _, err := coredecomp.ParseKernel(name); err != nil || name == "" {
				fmt.Fprintf(stderr, "benchtab: bad -kernels entry %q (have levelsync, buffered, hindex)\n", name)
				return 2
			}
			cfg.Kernels = append(cfg.Kernels, name)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = bench.Names()
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "== %s ==\n", name)
		if err := bench.Run(name, cfg); err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 1
		}
	}
	return 0
}

// parseThreadList parses a comma-separated list of positive thread
// counts; empty input yields nil.
func parseThreadList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || t < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, t)
	}
	return out, nil
}

// runCompare implements -compare: old journal from the flag, candidate
// journal as the sole positional argument.
func runCompare(oldPath, candidate, reportPath string, gate bool, stdout, stderr io.Writer) int {
	oldRep, err := bench.ReadReport(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchtab: %v\n", err)
		return 1
	}
	newRep, err := bench.ReadReport(candidate)
	if err != nil {
		fmt.Fprintf(stderr, "benchtab: %v\n", err)
		return 1
	}
	c := bench.Compare(oldRep, newRep)
	md := c.Markdown()
	fmt.Fprint(stdout, md)
	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(md), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchtab: writing %s: %v\n", reportPath, err)
			return 1
		}
	}
	if gate && c.HasRegressions() {
		fmt.Fprintf(stderr, "benchtab: %d confirmed regression(s) beyond the noise band\n", c.Count(bench.DeltaRegressed))
		return 3
	}
	return 0
}
