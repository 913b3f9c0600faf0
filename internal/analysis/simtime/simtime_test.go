package simtime_test

import (
	"path/filepath"
	"testing"

	"dafsio/internal/analysis"
	"dafsio/internal/analysis/analysistest"
	"dafsio/internal/analysis/simtime"
)

func TestSimtime(t *testing.T) {
	analysistest.Run(t, simtime.Analyzer, filepath.Join("testdata", "src", "a"))
}

// TestSimtimeTracer runs the tracer-shaped fixture: span recording must
// read only virtual time, so a wall clock anywhere in span begin/end or
// export code is flagged.
func TestSimtimeTracer(t *testing.T) {
	analysistest.Run(t, simtime.Analyzer, filepath.Join("testdata", "src", "tracer"))
}

// TestMatch pins the analyzer to the simulated tree: every package under
// internal/ is covered, whether or not it is named anywhere, while the
// analysis framework and the cmd/ tree (which may report real wall time
// around a run) are not.
func TestMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"dafsio/internal/sim":                true,
		"dafsio/internal/via":                true,
		"dafsio/internal/mpiio":              true,
		"dafsio/internal/bench":              true,
		"dafsio/internal/trace":              true,
		"dafsio/internal/metrics":            true,
		"dafsio/internal/aggregate":          true,
		"dafsio/cmd/mpio":                    false,
		"dafsio/internal/analysis":           false,
		"dafsio/internal/analysis/callgraph": false,
	} {
		if got := simtime.Analyzer.Match(path); got != want {
			t.Errorf("Match(%q) = %v, want %v", path, got, want)
		}
	}
	var _ *analysis.Analyzer = simtime.Analyzer
}
