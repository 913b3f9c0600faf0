// Command mpiobench regenerates the evaluation tables — every experiment
// in bench.All, which -list prints: for each one it builds a fresh
// simulated cluster, runs the workload, and prints the table. Results are
// deterministic: a given binary prints identical numbers on every run.
//
// Usage:
//
//	mpiobench            # run every experiment
//	mpiobench -list      # list experiment IDs and titles
//	mpiobench -run T5    # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dafsio/internal/bench"
	"dafsio/internal/stats"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "run a single experiment by ID (e.g. T5)")
	quiet := flag.Bool("q", false, "omit wall-clock timing lines")
	fig := flag.Bool("fig", false, "also render each experiment as an ASCII figure")
	flag.Parse()

	if *list {
		for _, e := range bench.All {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	selected := bench.All
	if *run != "" {
		e := bench.ByID(*run)
		if e == nil {
			fmt.Fprintf(os.Stderr, "mpiobench: unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		selected = []bench.Experiment{*e}
	}
	for _, e := range selected {
		t0 := time.Now()
		tbl := e.Run()
		tbl.Fprint(os.Stdout)
		if *fig {
			if ch := stats.ChartFromTable(tbl); ch != nil {
				ch.Fprint(os.Stdout)
				fmt.Println()
			}
		}
		if !*quiet {
			fmt.Printf("  [profile clan-1998; %v wall time]\n\n", time.Since(t0).Round(time.Millisecond))
		}
	}
}
