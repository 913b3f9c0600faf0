// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against `// want "regexp"` comments in the fixture
// source — the same contract as golang.org/x/tools/go/analysis/analysistest,
// rebuilt on the repository's standard-library-only analysis framework.
//
// Fixtures live under testdata/src/<name>/ next to the analyzer's test.
// Every line that must trigger a diagnostic carries a trailing comment
// `// want "re"` where re is a regular expression matched against the
// diagnostic message; lines without a want comment must stay silent.
// Fixture packages may import standard-library and repository packages
// (both are type-checked from source on demand).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dafsio/internal/analysis"
)

// expectation is one `// want` annotation.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRe accepts the pattern either double-quoted (`want "re"`, with
// backslash escapes) or backquoted (want `re`, taken verbatim).
var wantRe = regexp.MustCompile("//\\s*want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// Run analyzes the fixture package in dir with a and reports mismatches
// between the diagnostics and the fixture's want annotations through t.
//
//mpiolint:ignore reach test harness: every pass test runs its fixtures through it
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkg, err := load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{{
		// Strip Match: fixtures live under synthetic import paths.
		Name: a.Name, Doc: a.Doc, Run: a.Run,
	}})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	wants := collectWants(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.file == filepath.Base(pos.Filename) && w.line == pos.Line && !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants extracts the want annotations from the fixture source.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					pos := pkg.Fset.Position(c.Pos())
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{
					file: filepath.Base(pos.Filename),
					line: pos.Line,
					re:   re,
				})
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// load parses and type-checks the fixture package in dir.
func load(dir string) (*analysis.Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	sort.Strings(names)
	ld := analysis.NewLoader("")
	fset := ld.Fset()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var errs []error
	conf := ld.Config(nil, true, &errs)
	info := analysis.NewInfo()
	pkgPath := filepath.Base(dir)
	tpkg, cerr := conf.Check(pkgPath, fset, files, info)
	if len(errs) > 0 {
		var msgs []string
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("type errors:\n  %s", strings.Join(msgs, "\n  "))
	}
	if cerr != nil {
		return nil, cerr
	}
	return &analysis.Package{Path: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
