// Command mpio runs the evaluation. Every experiment in bench.All
// rebuilds its simulated cluster, runs its workload and prints its table;
// the observable ones re-run their representative point with the
// cross-layer tracer or the metrics plane attached. Everything runs on
// simulated time and both planes are observational, so the same
// invocation prints the same bytes and writes the same files on every run.
//
// Usage:
//
//	mpio list                       # experiment IDs and titles
//	mpio run [-q] [-fig] [id]       # one table, or all of them in order
//	mpio trace id [-clients n] [-servers s] [-hist] [-trace out.json]
//	mpio stat id [-clients n] [-servers s] [-interval d] [-json out.json]
//
// trace prints a per-category time breakdown (-hist adds per-(layer, op)
// latency histograms; -trace writes Chrome trace-event JSON for Perfetto).
// stat prints per-interval bandwidth and failover state and the flight
// recorder's postmortems (-json writes every series). -clients and
// -servers size T15's striped point, and -servers is T17's stripe width;
// the other experiments have a fixed shape. The bare `mpio run` includes
// T18 (32,768 sessions); the whole run takes about 37 s and peaks near
// 1.1 GB of memory on a 2-core machine.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dafsio/internal/bench"
	"dafsio/internal/metrics"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

func main() {
	if err := mpio(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "mpio: %v\n", err)
		os.Exit(1)
	}
}

// mpio runs one subcommand, writing its report to w. Files go where the
// flags say; status lines go to stderr, so stdout carries only
// deterministic data.
func mpio(args []string, w io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: mpio list | run [id] | trace id | stat id (-h after a command for its flags)")
	}
	fs := flag.NewFlagSet("mpio "+args[0], flag.ContinueOnError)
	switch args[0] {
	case "list":
		for _, e := range bench.All {
			fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	case "run":
		quiet := fs.Bool("q", false, "omit wall-clock timing lines")
		fig := fs.Bool("fig", false, "also render each table as an ASCII figure")
		id, err := parse(fs, args[1:])
		if err != nil {
			return err
		}
		return runTables(w, id, *quiet, *fig)
	case "trace":
		clients, servers := shape(fs)
		hist := fs.Bool("hist", false, "also print per-(layer, op) latency histograms")
		out := fs.String("trace", "", "write the Chrome trace-event JSON here")
		id, err := parse(fs, args[1:])
		if err != nil {
			return err
		}
		r, err := bench.Observe(id, *clients, *servers, bench.Observation{Trace: true})
		if err != nil {
			return err
		}
		return traceReport(w, r, *hist, *out)
	case "stat":
		clients, servers := shape(fs)
		interval := fs.Duration("interval", time.Millisecond, "sampling tick (simulated time)")
		out := fs.String("json", "", "write every sampled series and dump as JSON here")
		id, err := parse(fs, args[1:])
		if err != nil {
			return err
		}
		if *interval <= 0 {
			return errors.New("-interval must be positive")
		}
		r, err := bench.Observe(id, *clients, *servers, bench.Observation{Tick: sim.Time(interval.Nanoseconds())})
		if err != nil {
			return err
		}
		return statReport(w, r, *out)
	}
	return fmt.Errorf("unknown command %q (list, run, trace or stat)", args[0])
}

// shape defines the flags that size an observed point.
func shape(fs *flag.FlagSet) (clients, servers *int) {
	return fs.Int("clients", 4, "client count (T15)"), fs.Int("servers", 4, "server count (T15); stripe width (T17)")
}

// parse reads flags on either side of the one optional experiment ID.
func parse(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() == 0 {
		return "", nil
	}
	id := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return "", err
	}
	if fs.NArg() > 0 {
		return "", fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	return id, nil
}

// runTables prints experiment id's table, or every table when id is empty.
func runTables(w io.Writer, id string, quiet, fig bool) error {
	selected := bench.All
	if id != "" {
		e := bench.ByID(id)
		if e == nil {
			return fmt.Errorf("unknown experiment %q (try mpio list)", id)
		}
		selected = []bench.Experiment{*e}
	}
	for _, e := range selected {
		t0 := time.Now()
		tbl := e.Run()
		tbl.Fprint(w)
		if fig {
			if ch := stats.ChartFromTable(tbl); ch != nil {
				ch.Fprint(w)
				fmt.Fprintln(w)
			}
		}
		if !quiet {
			fmt.Fprintf(w, "  [profile clan-1998; %v wall time]\n\n", time.Since(t0).Round(time.Millisecond))
		}
	}
	return nil
}

// traceReport prints a traced run's breakdown (and histograms) and writes
// its Chrome trace to out.
func traceReport(w io.Writer, r bench.Result, hist bool, out string) error {
	fmt.Fprintf(w, "%s: %.1f MB/s over %.3f ms simulated (%d spans)\n\n",
		r.ID, r.MBps, float64(r.Elapsed())/1e6, len(r.Tracer.Spans()))
	r.BreakdownTable().Fprint(w)
	fmt.Fprintln(w)
	if hist {
		r.Tracer.HistTable().Fprint(w)
		fmt.Fprintln(w)
	}
	if out == "" {
		return nil
	}
	if err := create(out, r.Tracer.WriteChrome); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", out)
	return nil
}

// statReport prints a sampled run's series table and flight-recorder
// postmortems, and writes the registry's JSON export to out.
func statReport(w io.Writer, r bench.Result, out string) error {
	fmt.Fprintf(w, "%s: %.1f MB/s over %.3f ms simulated, %d samples at %v — %s\n",
		r.ID, r.MBps, float64(r.Elapsed())/1e6, r.Reg.Samples(), r.Reg.Tick(), r.Outcome)
	if r.Recovery > 0 {
		fmt.Fprintf(w, "recovery: %v after the kill, %d redial attempts\n", r.Recovery, r.Retries)
	}
	fmt.Fprintln(w)
	r.SeriesTable().Fprint(w)
	printDumps(w, r.Reg)
	if out == "" {
		return nil
	}
	if err := create(out, r.Reg.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mpio: wrote %s\n", out)
	return nil
}

// create writes a file through write, reporting the first error of the
// write, the flush and the close.
func create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// printDumps renders the registry's flight-recorder postmortems: per
// dumped ring, the reason, the instant, and the ring's surviving events
// in chronological order.
func printDumps(w io.Writer, reg *metrics.Registry) {
	ds := reg.Dumps()
	if len(ds) == 0 {
		return
	}
	fmt.Fprintf(w, "\nflight recorder: %d dump(s)", len(ds))
	if n := reg.DroppedDumps(); n > 0 {
		fmt.Fprintf(w, " (+%d dropped)", n)
	}
	fmt.Fprintln(w)
	for _, d := range ds {
		fmt.Fprintf(w, "\n  ring %s at %v — %s (%d events noted, last %d shown)\n",
			d.Ring, d.At, d.Reason, d.Total, len(d.Events))
		for _, e := range d.Events {
			if e.Op != "" {
				fmt.Fprintf(w, "    %12v  %-12s %-10s arg=%d aux=%d\n", e.At, e.Kind, e.Op, e.Arg, e.Aux)
			} else {
				fmt.Fprintf(w, "    %12v  %-12s arg=%d aux=%d\n", e.At, e.Kind, e.Arg, e.Aux)
			}
		}
	}
}
