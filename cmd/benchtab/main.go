// Command benchtab regenerates the paper's evaluation tables and figures
// (§V) on the synthetic dataset suite, as printed tables.
//
// Usage:
//
//	benchtab -exp table3                 # one experiment
//	benchtab -exp all -scale 4 -reps 3   # the full evaluation
//	benchtab -exp table3 -threads 4      # the "(P)" columns at 4 threads
//	benchtab -exp fig4 -sweep 1,2,4,8 -datasets AS,LJ,H
//
// Experiments: table2 table3 table4 table5 fig4 fig5 fig6 fig7 fig8 fig9
// fig10 ablation maintenance. See DESIGN.md for what each reproduces and
// EXPERIMENTS.md for recorded results and the per-figure command table.
// The repository benchmark, which checks every answer and reports
// bounded metrics, is perfbench (perfbench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hcd/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the harness with explicit streams and returns an exit code;
// main is a thin wrapper so tests can drive it in-process. Exit codes:
// 0 success, 1 experiment failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	flag.SetOutput(stderr)
	exp := flag.String("exp", "all", "experiment name or 'all'")
	scale := flag.Int("scale", 4, "dataset scale multiplier")
	threads := flag.Int("threads", 0, "thread count of the \"(P)\" columns (0 = GOMAXPROCS)")
	reps := flag.Int("reps", 3, "timing repetitions (minimum reported)")
	sweep := flag.String("sweep", "", "comma-separated thread sweep for figures (default 1,2,4,..,GOMAXPROCS)")
	datasets := flag.String("datasets", "", "comma-separated dataset abbreviations (default all ten)")
	if err := flag.Parse(args); err != nil {
		return 2
	}

	cfg := bench.Config{
		Scale:   *scale,
		Threads: *threads,
		Reps:    *reps,
		Out:     stdout,
	}
	if *sweep != "" {
		for _, part := range strings.Split(*sweep, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || t < 1 {
				fmt.Fprintf(stderr, "benchtab: bad -sweep entry %q\n", part)
				return 2
			}
			cfg.Sweep = append(cfg.Sweep, t)
		}
	}
	if *datasets != "" {
		for _, part := range strings.Split(*datasets, ",") {
			cfg.Datasets = append(cfg.Datasets, strings.TrimSpace(part))
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
