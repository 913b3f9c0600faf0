package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestResultsGolden is the behavioural contract: every experiment but T18
// prints exactly its section of results.txt. T18 stays out until a
// finished simulation releases its memory; its 512x64 grid does not fit a
// 16 GB box. Regenerate a section with `mpio run -q <id>`.
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
		if e.ID == "T18" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
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
