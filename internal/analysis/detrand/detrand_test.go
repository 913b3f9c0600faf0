package detrand_test

import (
	"path/filepath"
	"testing"

	"dafsio/internal/analysis/analysistest"
	"dafsio/internal/analysis/detrand"
)

func TestDetrand(t *testing.T) {
	analysistest.Run(t, detrand.Analyzer, filepath.Join("testdata", "src", "a"))
}

func TestMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"dafsio/internal/stats": true,
		"dafsio/cmd/mpio":       true,
		"fmt":                   false,
	} {
		if got := detrand.Analyzer.Match(path); got != want {
			t.Errorf("Match(%q) = %v, want %v", path, got, want)
		}
	}
}
