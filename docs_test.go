package dafsio_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dafsio/internal/bench"
)

// TestDocsIndex keeps the two indexes that name code in step with it:
// DESIGN.md §5 lists exactly bench.All's experiments, in order, and the
// README's command list names exactly the directories under cmd/.
func TestDocsIndex(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(design)
	start, end := strings.Index(sec, "\n## 5. "), strings.Index(sec, "\n## 6. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §5 followed by §6")
	}
	var listed, ids []string
	for _, m := range regexp.MustCompile(`(?m)^\| *(T\d+N?) *\|`).FindAllStringSubmatch(sec[start:end], -1) {
		listed = append(listed, m[1])
	}
	for _, e := range bench.All {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(listed, ids) {
		t.Errorf("DESIGN.md §5 lists %v, bench.All has %v", listed, ids)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var named, dirs []string
	for _, m := range regexp.MustCompile(`(?m)^cmd/(\S+)`).FindAllStringSubmatch(string(readme), -1) {
		named = append(named, m[1])
	}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	slices.Sort(named)
	if !slices.Equal(named, dirs) {
		t.Errorf("README lists commands %v, cmd/ holds %v", named, dirs)
	}
}
