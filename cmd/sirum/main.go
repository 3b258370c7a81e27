// Command sirum mines informative rules from a CSV file.
//
// Usage:
//
//	sirum -input data.csv -measure Delay [-ignore "Flight ID"] [-k 10]
//	      [-sample 64] [-variant optimized] [-fraction 0.1] [-seed 1]
//	      [-backend native|sim]
//
// With -dataset instead of -input, one of the built-in synthetic evaluation
// datasets is mined (income, gdelt, susy, tlc, flights).
//
// With -ks (comma-separated list, e.g. -ks 5,10,20) the dataset is prepared
// once and every K runs as a query against the shared session — the
// interactive prepare-once/query-many path — reporting per-query times.
//
// The exp subcommand regenerates the thesis' tables and figures:
//
//	sirum exp -list
//	sirum exp -exp fig-5.3            # one experiment
//	sirum exp -exp all [-scale 2000]  # the whole evaluation
//
// with -quick, -seed, -executors, -cores and -backend sim|native as further
// flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sirum"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sirum:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "exp" {
		return runExp(args[1:], out)
	}
	fs := flag.NewFlagSet("sirum", flag.ContinueOnError)
	input := fs.String("input", "", "CSV file to mine")
	measure := fs.String("measure", "", "measure column name (required with -input)")
	ignore := fs.String("ignore", "", "comma-separated columns to drop (ids etc.)")
	dsName := fs.String("dataset", "", "built-in dataset instead of -input: income|gdelt|susy|tlc|flights")
	rows := fs.Int("rows", 10000, "rows for built-in datasets")
	k := fs.Int("k", 10, "number of rules to mine")
	ks := fs.String("ks", "", "comma-separated K values: prepare once, mine one query per K (overrides -k)")
	sample := fs.Int("sample", 64, "|s| for candidate pruning (0 = exhaustive)")
	variant := fs.String("variant", "optimized", "miner variant: naive|baseline|rct|fastpruning|fastancestor|multirule|optimized")
	fraction := fs.Float64("fraction", 0, "mine on this fraction of the data (0 = all)")
	seed := fs.Int64("seed", 1, "random seed")
	executors := fs.Int("executors", 4, "virtual executors of the execution substrate")
	backend := fs.String("backend", "native", "execution backend: native (host speed) or sim (simulated cluster)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ds *sirum.Dataset
	var err error
	switch {
	case *input != "" && *dsName != "":
		return fmt.Errorf("use either -input or -dataset, not both")
	case *input != "":
		if *measure == "" {
			return fmt.Errorf("-measure is required with -input")
		}
		var ign []string
		if *ignore != "" {
			ign = strings.Split(*ignore, ",")
		}
		ds, err = sirum.ReadCSVFile(*input, *measure, ign...)
	case *dsName != "":
		ds, err = sirum.Generate(*dsName, *rows, *seed)
	default:
		return fmt.Errorf("one of -input or -dataset is required")
	}
	if err != nil {
		return err
	}

	fmt.Fprintln(out, ds.Summary())
	if *ks != "" {
		return runSession(out, ds, *ks, *sample, *variant, *fraction, *seed, *executors, *backend)
	}
	res, err := ds.Mine(sirum.Options{
		K:              *k,
		SampleSize:     *sample,
		Variant:        sirum.Variant(*variant),
		SampleFraction: *fraction,
		Seed:           *seed,
		Cluster:        sirum.Cluster{Executors: *executors},
		Backend:        sirum.Backend(*backend),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%-60s  %12s  %8s  %10s\n", "rule", "avg("+ds.MeasureName()+")", "count", "gain")
	fmt.Fprintf(out, "%-60s  %12s  %8s  %10s\n", strings.Repeat("-", 60), strings.Repeat("-", 12), strings.Repeat("-", 8), strings.Repeat("-", 10))
	for _, r := range res.Rules {
		fmt.Fprintf(out, "%-60s  %12.4g  %8d  %10.4g\n", r.String(), r.Avg, r.Count, r.Gain)
	}
	fmt.Fprintf(out, "\nKL divergence: %.6f   information gain: %.6f\n", res.KL, res.InfoGain)
	fmt.Fprintf(out, "iterations: %d   wall: %v", res.Iterations, res.WallTime.Round(1e6))
	if *backend == string(sirum.BackendSim) {
		fmt.Fprintf(out, "   simulated cluster time: %v", res.SimTime.Round(1e6))
	}
	fmt.Fprintln(out)
	return nil
}

// runSession prepares the dataset once and answers one query per K.
func runSession(out io.Writer, ds *sirum.Dataset, ks string, sample int, variant string, fraction float64, seed int64, executors int, backend string) error {
	var kList []int
	for _, part := range strings.Split(ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k <= 0 {
			return fmt.Errorf("bad -ks entry %q", part)
		}
		kList = append(kList, k)
	}
	prepStart := time.Now()
	p, err := ds.Prepare(sirum.PrepareOptions{
		SampleSize:     sample,
		Seed:           seed,
		SampleFraction: fraction,
		Cluster:        sirum.Cluster{Executors: executors},
		Backend:        sirum.Backend(backend),
	})
	if err != nil {
		return err
	}
	defer p.Close()
	fmt.Fprintf(out, "prepared in %v; mining %d queries on the shared session\n", time.Since(prepStart).Round(1e6), len(kList))
	for _, k := range kList {
		res, err := p.Mine(sirum.Options{
			K:              k,
			SampleSize:     sample,
			Variant:        sirum.Variant(variant),
			SampleFraction: fraction,
			Seed:           seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nK=%d  (KL %.6f, info gain %.6f, wall %v)\n", k, res.KL, res.InfoGain, res.WallTime.Round(1e6))
		for _, r := range res.Rules {
			fmt.Fprintf(out, "  %-58s  %10.4g  %8d\n", r.String(), r.Avg, r.Count)
		}
	}
	return nil
}
