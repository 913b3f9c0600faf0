// Command mpio runs the evaluation. Every experiment in bench.All is a
// list of points, each run on a cluster built from scratch, and a render
// that prints its table from their results; trace and stat re-run one
// point with the cross-layer tracer or the metrics plane attached. Both
// planes are observational and everything runs on simulated time, so an
// invocation prints the same bytes and writes the same files every run.
//
// Usage:
//
//	mpio list [id]                  # experiment IDs and titles, or id's numbered points
//	mpio run [-q] [-fig] [id]       # one table, or all of them in order
//	mpio trace id [-point i] [-hist] [-trace out.json]
//	mpio stat id [-point i] [-interval d] [-json out.json]
//
// trace prints a per-category time breakdown (-hist adds per-(layer, op)
// latency histograms; -trace writes Chrome trace-event JSON for Perfetto).
// stat prints per-interval bandwidth and failover state (-json writes
// every series). -point picks a point as `mpio list id` numbers them, by
// default the experiment's representative one. Every experiment can be
// traced, and every one but T1 (a bare VIA pair) sampled. The bare `mpio
// run` includes T18 (32,768 sessions); the whole run takes about 37 s and
// peaks near 1.1 GB of memory on a 2-core machine.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dafsio/internal/bench"
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

const pointUsage = "the point to run, as mpio list <id> numbers them; -1 is the experiment's representative point"

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
		id, err := parse(fs, args[1:])
		if err != nil {
			return err
		}
		if id == "" {
			for _, e := range bench.All {
				fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
			}
			return nil
		}
		e, err := bench.ByID(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s %s (trace and stat run point %d unless -point names another)\n", e.ID, e.Title, e.Observe)
		for i, pt := range e.Points {
			fmt.Fprintf(w, "%3d  %v\n", i, pt)
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
		point := fs.Int("point", -1, pointUsage)
		hist := fs.Bool("hist", false, "also print per-(layer, op) latency histograms")
		out := fs.String("trace", "", "write the Chrome trace-event JSON here")
		id, err := parse(fs, args[1:])
		if err != nil {
			return err
		}
		r, err := observe(id, *point, bench.Observation{Trace: true})
		if err != nil {
			return err
		}
		return traceReport(w, r, *hist, *out)
	case "stat":
		point := fs.Int("point", -1, pointUsage)
		interval := fs.Duration("interval", time.Millisecond, "sampling tick (simulated time)")
		out := fs.String("json", "", "write every sampled series and dump as JSON here")
		id, err := parse(fs, args[1:])
		if err != nil {
			return err
		}
		if *interval <= 0 {
			return errors.New("-interval must be positive")
		}
		r, err := observe(id, *point, bench.Observation{Tick: sim.Time(interval.Nanoseconds())})
		if err != nil {
			return err
		}
		return statReport(w, r, *out)
	}
	return fmt.Errorf("unknown command %q (list, run, trace or stat)", args[0])
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
		e, err := bench.ByID(id)
		if err != nil {
			return err
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

// observe runs experiment id's point i, or its representative point when
// i is -1, under o.
func observe(id string, i int, o bench.Observation) (bench.Result, error) {
	e, err := bench.ByID(id)
	if err != nil {
		return bench.Result{}, err
	}
	if i == -1 {
		i = e.Observe
	}
	return e.RunPoint(i, o)
}

// traceReport prints a traced run's breakdown (and histograms) and writes
// its Chrome trace to out.
func traceReport(w io.Writer, r bench.Result, hist bool, out string) error {
	fmt.Fprintf(w, "%s: %.1f MB/s over %.3f ms simulated (%d spans)\n\n",
		r.ID, r.MBps, float64(r.Elapsed())/1e6, len(r.Tracer.Spans()))
	r.Tracer.BreakdownTable(r.Elapsed()).Fprint(w)
	fmt.Fprintln(w)
	if hist {
		r.Tracer.HistTable().Fprint(w)
		fmt.Fprintln(w)
	}
	return create(out, r.Tracer.WriteChrome, " (open in https://ui.perfetto.dev or chrome://tracing)")
}

// statReport prints a sampled run's series table and writes the
// registry's JSON export to out.
func statReport(w io.Writer, r bench.Result, out string) error {
	fmt.Fprintf(w, "%s: %.1f MB/s over %.3f ms simulated, %d samples at %v — %s\n",
		r.ID, r.MBps, float64(r.Elapsed())/1e6, r.Reg.Samples(), r.Reg.Tick(), r.Outcome)
	if r.Recovery > 0 {
		fmt.Fprintf(w, "recovery: %v after the kill, %d redial attempts\n", r.Recovery, r.Retries)
	}
	fmt.Fprintln(w)
	r.SeriesTable().Fprint(w)
	return create(out, r.Reg.WriteJSON, "")
}

// create writes the file at path, if one is named, through write, and says
// so on stderr with hint.
func create(path string, write func(io.Writer) error, hint string) error {
	if path == "" {
		return nil
	}
	var b bytes.Buffer
	if err := write(&b); err != nil {
		return err
	}
	if err := os.WriteFile(path, b.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mpio: wrote %s%s\n", path, hint)
	return nil
}
