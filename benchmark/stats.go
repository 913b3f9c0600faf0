package main

import (
	"math"
	"sort"
	"syscall"
)

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
// An empty slice gives 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// quartiles returns the first quartile, the median and the third quartile of
// vs with linear interpolation between closest ranks (the "inclusive"
// method), so one value is its own quartiles and two values interpolate.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// peakRSSMB is this process's ru_maxrss, which Linux reports in KB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
