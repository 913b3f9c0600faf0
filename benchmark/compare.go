package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one workload x metric row of -compare.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictSame       verdict = "same"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a metric's direction and bound to a baseline a and a
// candidate b. The candidate is worse (better) when its median is worse
// (better) than the baseline's by more than the bound. Inside the bound it
// is the same, unless the run-to-run spread of either side (the distance
// between its quartiles) is wider than the bound: then the metric is
// unresolved, not unchanged, except when every run of the candidate reads
// better than every run of the baseline.
func judge(def metricDef, a, b metricValue) verdict {
	sign := 1.0 // positive delta: worse
	if def.higher {
		sign = -1
	}
	bound := def.bound(a.Median)
	delta := sign * (b.Median - a.Median)
	switch {
	case delta > bound:
		return verdictWorse
	case delta < -bound:
		return verdictBetter
	}
	if max(a.Q3-a.Q1, b.Q3-b.Q1) <= bound {
		return verdictSame
	}
	if len(a.Values) > 0 && len(b.Values) > 0 {
		worstB, bestA := sign*b.Values[0], sign*a.Values[0]
		for _, v := range b.Values {
			worstB = max(worstB, sign*v)
		}
		for _, v := range a.Values {
			bestA = min(bestA, sign*v)
		}
		if worstB < bestA {
			return verdictBetter
		}
	}
	return verdictUnresolved
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := new(resultFile)
	if err := json.Unmarshal(raw, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints one row per workload x end-to-end metric and returns
// the exit code: 0 when no row is worse, 1 when one is, 2 when the files
// cannot be compared (unreadable, or another seed or volume).
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// compareResults judges candidate b against baseline a. Whatever the
// baseline has and the candidate lacks -- a workload, a metric, a clean run --
// is worse: a crashed workload must not pass by reporting nothing.
func compareResults(w io.Writer, a, b *resultFile) int {
	if a.Env.Seed != b.Env.Seed || a.Env.Scale != b.Env.Scale {
		fmt.Fprintf(os.Stderr, "benchmark: not comparable: seed %d at 1/%d volume against seed %d at 1/%d volume\n",
			a.Env.Seed, a.Env.Scale, b.Env.Seed, b.Env.Scale)
		return 2
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "# environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	counts := map[verdict]int{}
	row := func(workload, metric string, v verdict, detail string) {
		counts[v]++
		fmt.Fprintf(w, "%-14s %-28s %-10s %s\n", workload, metric, v, detail)
	}
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wa.EndToEnd == nil {
			continue // the baseline did not run it
		}
		if wb == nil {
			wb = &workloadResult{}
		}
		for _, msg := range wb.Errors {
			row(wl.name, "run", verdictWorse, "candidate failed: "+msg)
		}
		for _, def := range endToEnd {
			ma, okA := wa.EndToEnd[def.name]
			mb, okB := wb.EndToEnd[def.name]
			switch {
			case !okA:
			case !okB:
				row(wl.name, def.name, verdictWorse, "missing from the candidate")
			default:
				detail := fmt.Sprintf("%.6g -> %.6g %s (bound %.4g, spread %.4g / %.4g)",
					ma.Median, mb.Median, def.unit, def.bound(ma.Median), ma.Q3-ma.Q1, mb.Q3-mb.Q1)
				row(wl.name, def.name, judge(def, ma, mb), detail)
			}
		}
		// Any increase in the share of failed calls is a regression.
		sa := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		sb := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		v := verdictSame
		switch {
		case sb > sa:
			v = verdictWorse
		case sb < sa:
			v = verdictBetter
		}
		row(wl.name, "failed_ops_share", v, fmt.Sprintf("%g -> %g (%d/%d -> %d/%d calls)", sa, sb, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted))
	}
	fmt.Fprintf(w, "# %d better, %d same, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
