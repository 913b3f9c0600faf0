package reach_test

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"testing"

	"dafsio/internal/analysis"
	"dafsio/internal/analysis/analysistest"
	"dafsio/internal/analysis/reach"
)

func TestReach(t *testing.T) {
	analysistest.Run(t, reach.Analyzer, filepath.Join("testdata", "src", "a"))
}

// A keep directive with no reason keeps nothing: the directive is
// reported, and so is the function under it.
func TestDirectiveWithoutReason(t *testing.T) {
	const src = `package b

// f has a bare directive.
//
//mpiolint:ignore reach
func f() {}
`
	ld := analysis.NewLoader("")
	file, err := parser.ParseFile(ld.Fset(), "b.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	conf := ld.Config(nil, true, nil)
	info := analysis.NewInfo()
	tpkg, err := conf.Check("b", ld.Fset(), []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &analysis.Package{Path: "b", Fset: ld.Fset(), Files: []*ast.File{file}, Types: tpkg, Info: info}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{reach.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, analysis.Format(ld.Fset(), d))
	}
	want := []string{
		"b.go:5:1: [ignore] mpiolint:ignore needs an analyzer name and a justification",
		"b.go:6:6: [reach] f is reached from no main, init, package var or kept declaration: delete it, or keep it with //mpiolint:ignore reach <reason>",
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("diagnostics:\n%q\nwant:\n%q", got, want)
	}
}

// The benchmark's sources are not checked, but they are roots.
func TestMatch(t *testing.T) {
	for path, want := range map[string]bool{
		"dafsio/benchmark":      false,
		"dafsio/internal/sim":   true,
		"dafsio/cmd/mpio":       true,
		"dafsio/internal/mpiio": true,
	} {
		if got := reach.Analyzer.Match(path); got != want {
			t.Errorf("Match(%q) = %v, want %v", path, got, want)
		}
	}
}
