// Package simtime forbids wall-clock time in the simulated stack.
//
// The repository's central claim — every table in results.txt reprints
// identically on every run — holds only if the simulation never consults
// the host clock. Virtual time comes exclusively from the discrete-event
// kernel (sim.Time, Proc.Now, Kernel.Now); a single time.Now() or
// time.Sleep() inside a simulated component silently couples results to
// the host scheduler and breaks the diff-verified determinism the
// evaluation rests on. Wall-clock use stays legal outside the simulated
// tree (cmd/ binaries may report real elapsed time around a run).
package simtime

import (
	"go/ast"

	"dafsio/internal/analysis"
)

// banned is the wall-clock surface of package time: everything that reads
// the host clock or schedules against it. Pure duration arithmetic and
// formatting (time.Duration, time.Millisecond...) remain allowed.
var banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// The simulated tree is every package under dafsio/internal but the
// analysis framework, which runs on the host: whatever is added there
// executes inside (or assembles) the simulation and must advance only
// virtual time.
const (
	internalTree = "dafsio/internal"
	analysisTree = "dafsio/internal/analysis"
)

// Analyzer is the simtime pass.
var Analyzer = &analysis.Analyzer{
	Name: "simtime",
	Doc:  "forbid wall-clock time (time.Now, time.Sleep, timers) in simulated packages; use sim virtual time",
	Match: func(pkgPath string) bool {
		return analysis.PathHasPrefix(pkgPath, internalTree) && !analysis.PathHasPrefix(pkgPath, analysisTree)
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := analysis.UsedPkgFunc(pass.TypesInfo, sel)
			if ok && path == "time" && banned[name] {
				pass.Reportf(sel.Pos(), "wall-clock time.%s in simulated code; use the sim kernel's virtual time (sim.Time, Proc.Now, Proc.Wait)", name)
			}
			return true
		})
	}
	return nil
}
