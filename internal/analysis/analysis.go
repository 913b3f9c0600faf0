// Package analysis is a self-contained static-analysis framework for this
// repository's invariant suite (cmd/mpiolint).
//
// It mirrors the shape of golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic, a multichecker driver, and an analysistest-style fixture
// harness — but is built entirely on the standard library (go/parser,
// go/types, and `go list` for package discovery), so the linter needs no
// dependencies beyond the Go toolchain itself. The passes encode invariants
// the compiler cannot see: simulated-time discipline, deterministic
// randomness, sentinel-error wrapping at the protocol layers, and that
// every function is reached from an entry point or kept on purpose.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "simtime").
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Match restricts the analyzer to packages whose import path it
	// accepts. A nil Match accepts every package. The fixture harness
	// ignores Match (fixtures live under synthetic paths).
	Match func(pkgPath string) bool
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgPath returns the import path of the package under analysis.
func (p *Pass) PkgPath() string { return p.Pkg.Path() }

// Run applies every analyzer to every package (subject to Analyzer.Match)
// and returns the diagnostics sorted by file position. Diagnostics
// suppressed by an `//mpiolint:ignore` directive are dropped; malformed
// directives are themselves reported.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = applyIgnores(pkgs, diags)
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
	}
	return diags, nil
}

// ignorePrefix marks a suppression directive:
//
//	//mpiolint:ignore <analyzer> <justification>
//
// It silences diagnostics from the named analyzer on the directive's own
// line, the rest of its comment group, and the line directly below the
// group — so a directive can trail the flagged statement, or sit above it
// in a comment block (stacked directives for different analyzers all
// cover the statement under the block). The justification is mandatory —
// a suppression with no recorded reason is reported as a violation of
// its own. Ignores are for invariants deliberately traded away (e.g. a
// function kept for its tests, which reach would otherwise delete), not
// for quieting the linter.
const ignorePrefix = "//mpiolint:ignore"

// ignoreSite is one suppressed (file, line, analyzer) coordinate.
type ignoreSite struct {
	file     string
	line     int
	analyzer string
}

// ignoreSites collects the coordinates suppressed by well-formed
// directives in one package, reporting malformed ones through onBad.
func ignoreSites(pkg *Package, out map[ignoreSite]bool, onBad func(token.Pos)) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					onBad(c.Pos())
					continue
				}
				from := pkg.Fset.Position(c.Pos())
				to := pkg.Fset.Position(cg.End())
				for line := from.Line; line <= to.Line+1; line++ {
					out[ignoreSite{from.Filename, line, fields[0]}] = true
				}
			}
		}
	}
}

// applyIgnores drops diagnostics covered by well-formed ignore directives
// and reports malformed ones.
func applyIgnores(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	ign := map[ignoreSite]bool{}
	for _, pkg := range pkgs {
		ignoreSites(pkg, ign, func(pos token.Pos) {
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: "ignore",
				Message:  "mpiolint:ignore needs an analyzer name and a justification",
			})
		})
	}
	if len(ign) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		if ign[ignoreSite{pos.Filename, pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// Format renders a diagnostic the way `go vet` does:
// path/file.go:line:col: [analyzer] message.
func Format(fset *token.FileSet, d Diagnostic) string {
	pos := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: [%s] %s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
}

// PathIsAny reports whether pkgPath equals one of the given import paths.
func PathIsAny(pkgPath string, paths ...string) bool {
	for _, p := range paths {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// PathHasPrefix reports whether pkgPath is prefix itself or a package
// beneath it (prefix "a/b" matches "a/b" and "a/b/c", not "a/bc").
func PathHasPrefix(pkgPath, prefix string) bool {
	return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
}

// UsedPkgFunc resolves a selector expression like rand.Intn to
// (importPath, funcName) when the selector's base names an imported
// package; ok is false otherwise (method calls, field accesses...).
func UsedPkgFunc(info *types.Info, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
