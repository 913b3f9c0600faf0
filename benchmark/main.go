// Command benchmark is the repository's benchmark: six workloads driven
// through the stack's public API on both clocks (simulated stack time, and
// the host time and memory it costs to produce it), a layer ladder and a
// traced run. See README.md in this directory.
//
//	go run ./benchmark                                   every workload: end-to-end reps, then the traced run
//	go run ./benchmark -workload w -seed n -seconds s -trace 0|1
//	go run ./benchmark -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// holding every end-to-end metric (-trace 0) or every per-layer metric
// (-trace 1). Any read-back mismatch, failed call, simulated metric that
// differs between reps or between the traced and the untraced run, or ladder
// rung cheaper than the rung beneath it makes the exit code non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 15 // about five reps of every workload
	minReps        = 3  // never fewer, whatever -seconds says; -short runs exactly these
	shortScale     = 16 // -short runs every workload at 1/16 volume

	// After the reps, further children only set the workload up, for about
	// setupSeconds: a set-up of a few milliseconds needs tens of samples
	// before its median holds still, one of a second needs few.
	setupSeconds = 1.5
	minSetupReps = 2
	maxSetupReps = 32
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload ("+workloadNames()+"); empty runs all")
		seed         = flag.Int64("seed", defaultSeed, "seed of the payload bytes and the client-to-region permutation")
		seconds      = flag.Float64("seconds", defaultSeconds, "measure each workload for about this long: as many reps (child processes) as fit, at least 3")
		traceMode    = flag.String("trace", "", "0: end-to-end reps only; 1: traced run only; empty: both")
		out          = flag.String("out", "", "directory for results.json and spans.json")
		short        = flag.Bool("short", false, "1/16 volume smoke run")
		compare      = flag.Bool("compare", false, "compare two results.json files: -compare a.json b.json")
		child        = flag.String("child", "", "internal: run one workload (or \"ladder\") in this process and print its result")
		childTraced  = flag.Bool("child-traced", false, "internal: the child runs with tracing, metrics and a CPU profile")
		childSetup   = flag.Bool("child-setup", false, "internal: the child sets the workload up, reports setup_s and stops")
	)
	flag.Parse()

	switch {
	case *child != "":
		os.Exit(runChild(*child, *seed, *short, *childTraced, *childSetup))
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	if *traceMode != "" && *traceMode != "0" && *traceMode != "1" {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		os.Exit(2)
	}
	run := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q (have %s)\n", *workloadName, workloadNames())
			os.Exit(2)
		}
		run = []*workload{w}
	}
	// Sized for two cores: one child at a time, simulated clients are
	// procs inside one kernel, not OS threads.
	runtime.GOMAXPROCS(2)
	d := &driver{seed: *seed, seconds: *seconds, short: *short}
	res := newResultFile(d)
	ok := true
	if *traceMode != "1" {
		for _, w := range run {
			ok = d.endToEnd(w, res) && ok
		}
	}
	if *traceMode != "0" {
		ok = d.tracedRun(run, res) && ok
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	if *workloadName != "" {
		// The contract's last line: one workload, one mode.
		fmt.Println(res.contractLine(*workloadName, *traceMode == "1", ok))
	}
	if !ok {
		os.Exit(1)
	}
}

// runChild is the body of a child process: one workload (or the ladder)
// once, the result as one JSON line on standard output.
func runChild(name string, seed int64, short, traced, setupOnly bool) int {
	var res *repResult
	if name == "ladder" {
		res = runLadder()
	} else {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", name)
			return 2
		}
		scale := 1
		if short {
			scale = shortScale
		}
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		var err error
		res, err = runWorkload(w, runOpts{seed: seed, scale: scale, traced: traced, setupOnly: setupOnly})
		pprof.StopCPUProfile()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if traced {
			shares, err := packageShares(prof.Bytes())
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for pkg, s := range shares {
				res.Layer["hostcpu."+pkg+"_share"] = s
			}
		}
		// The leak's baseline: what a finished simulation leaves behind.
		res.Layer["sim.goroutines_after_run"] = float64(runtime.NumGoroutine())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Layer["sim.live_heap_MB_after_run"] = float64(ms.HeapAlloc) / (1 << 20)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// driver runs children, one at a time.
type driver struct {
	seed    int64
	seconds float64
	short   bool
}

// spawn runs one child process and decodes its result. Fresh processes are
// required, not a convenience: a finished simulation is never released, so
// repeats inside one process slow down and grow with every rep.
// mode is "-child-traced", "-child-setup" or empty for a plain run.
func (d *driver) spawn(name, mode string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatInt(d.seed, 10)}
	if d.short {
		args = append(args, "-short")
	}
	if mode != "" {
		args = append(args, mode)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: child: %w", name, err)
	}
	res := new(repResult)
	if err := json.Unmarshal(outBytes, res); err != nil {
		return nil, fmt.Errorf("%s: child result: %w", name, err)
	}
	return res, nil
}

// endToEnd runs the workload's untraced reps, as many as fit into -seconds,
// then the children that only set up, and folds them into res. It reports
// whether every gate held.
func (d *driver) endToEnd(w *workload, res *resultFile) bool {
	var runs []*repResult
	var setups []float64
	child := func(mode string) bool {
		r, err := d.spawn(w.name, mode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			res.fail(w.name, err.Error())
			return false
		}
		setups = append(setups, r.Host["setup_s"])
		if mode == "" {
			runs = append(runs, r)
		}
		return true
	}
	begin := time.Now()
	fits := func() bool { // another rep fits into -seconds
		elapsed := time.Since(begin).Seconds()
		return !d.short && elapsed+elapsed/float64(len(runs)) <= d.seconds
	}
	for len(runs) < minReps || fits() {
		if !child("") {
			return false
		}
	}
	begin = time.Now()
	for n := 0; n < minSetupReps || !d.short && n < maxSetupReps && time.Since(begin).Seconds() < setupSeconds; n++ {
		if !child("-child-setup") {
			return false
		}
	}
	return res.addEndToEnd(w, runs, setups)
}

// tracedRun is the separate traced run: the ladder once, then each workload
// once untraced and once with tracing, metrics and a CPU profile on.
func (d *driver) tracedRun(run []*workload, res *resultFile) bool {
	ok := true
	ladder, err := d.spawn("ladder", "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		res.fail("ladder", err.Error())
		return false
	}
	ok = res.addLadder(ladder) && ok
	for _, w := range run {
		plain, err := d.spawn(w.name, "")
		var traced *repResult
		if err == nil {
			traced, err = d.spawn(w.name, "-child-traced")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			res.fail(w.name, err.Error())
			ok = false
			continue
		}
		ok = res.addTraced(w, plain, traced, ladder) && ok
	}
	return ok
}
