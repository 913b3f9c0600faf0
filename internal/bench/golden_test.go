package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestResultsGolden is the behavioural contract: every experiment prints
// exactly its section of results.txt. T18, the 512x64 wide grid, takes
// most of the package's time and memory (32,768 sessions at its top
// point), so -short leaves it out, and so does the race detector, under
// which it outgrows a CI runner. Regenerate a section with
// `mpio run -q <id>`.
func TestResultsGolden(t *testing.T) {
	raw, err := os.ReadFile("../../results.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	header := regexp.MustCompile(`(?m)^(\S+) — `)
	starts := header.FindAllStringSubmatchIndex(string(raw), -1)
	for i, m := range starts {
		end := len(raw)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		want[string(raw[m[2]:m[3]])] = string(raw[m[0]:end])
	}
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "T18" && (testing.Short() || raceEnabled) {
				t.Skip("the wide grid in -short mode or under the race detector")
			}
			t.Parallel()
			w, ok := want[e.ID]
			if !ok {
				t.Fatalf("results.txt has no %s section", e.ID)
			}
			if got := e.Run().String(); got != w {
				t.Errorf("%s differs from results.txt:\n%s", e.ID, lineDiff(w, got))
			}
		})
	}
}

// lineDiff lists the lines that differ between want and got, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return sb.String()
}
