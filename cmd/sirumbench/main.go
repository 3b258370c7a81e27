// Command sirumbench regenerates the thesis' tables and figures.
//
// Usage:
//
//	sirumbench -list
//	sirumbench -exp fig-5.3            # one experiment
//	sirumbench -exp all [-scale 2000]  # the whole evaluation
//
// Experiment ids are the thesis' figure/table numbers (fig-3.1 … fig-5.19,
// table-1.2, table-4.1) plus the ablations from DESIGN.md §5. The -scale
// flag divides the paper's dataset sizes; platform fixed overheads are
// scaled to match (DESIGN.md §1). Performance is measured by the repository
// benchmark (go run ./benchmark, BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sirum/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sirumbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sirumbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	exp := fs.String("exp", "", "experiment id, or 'all'")
	scale := fs.Int("scale", 2000, "divide the paper's dataset sizes by this factor")
	quick := fs.Bool("quick", false, "additionally shrink k and |s| (bench mode)")
	seed := fs.Int64("seed", 1, "random seed")
	executors := fs.Int("executors", 16, "virtual executors")
	cores := fs.Int("cores", 4, "virtual cores per executor")
	backend := fs.String("backend", "sim", "substrate for the generic mining figures: sim or native (platform/scaling figures always simulate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", r.ID, r.Description)
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("-exp is required (or -list)")
	}
	if *backend != "sim" && *backend != "native" {
		return fmt.Errorf("unknown backend %q (want sim or native)", *backend)
	}
	cfg := experiments.Config{
		Scale: *scale, Quick: *quick, Seed: *seed,
		Executors: *executors, Cores: *cores, Backend: *backend,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, r := range experiments.All() {
			ids = append(ids, r.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		for _, t := range tables {
			t.Render(stdout)
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
