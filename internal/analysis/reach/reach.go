// Package reach implements the mpiolint pass that flags functions no
// program runs.
//
// The roots are every main and init, every function named in a
// package-level var initializer (experiment tables, Analyzer values),
// every String() string and Error() string method (fmt and errors call
// them through interfaces declared outside the module), the methods
// other code outside the module calls through its own interfaces
// (types.Importer, sort.Interface), and every declaration marked as kept. From the roots the pass follows the module
// call graph's Refs edges (internal/analysis/callgraph): calls, function
// and method values, the bodies of asynchronous literals, and the
// conservative interface closure. A non-test function that no root
// reaches is reported.
//
// The keep-list is the suppression directive, written as the last line of
// the kept function's doc comment:
//
//	//mpiolint:ignore reach <reason>
//
// A marked function is a root, so what it calls is kept with it. The
// reasons in use are the MPI-2 chapter 9 API the paper implements (named
// by its MPI routine), test oracles and harnesses, and test probes that a
// named test reads and no reached API exposes.
package reach

import (
	"go/ast"
	"go/types"
	"strings"

	"dafsio/internal/analysis"
	"dafsio/internal/analysis/callgraph"
)

// Analyzer is the reach pass.
var Analyzer = &analysis.Analyzer{
	Name: "reach",
	Doc:  "flag functions that no main, init, package var, String/Error method or kept declaration reaches",
	// benchmark's sources are changed only with the benchmark itself;
	// its functions still count as roots through its main.
	Match: func(path string) bool { return path != "dafsio/benchmark" },
	Run:   run,
}

func run(pass *analysis.Pass) error {
	module, err := callgraph.Module()
	if err != nil {
		return err
	}
	local := callgraph.Build([]*analysis.Package{{
		Path:  pass.PkgPath(),
		Fset:  pass.Fset,
		Files: pass.Files,
		Types: pass.Pkg,
		Info:  pass.TypesInfo,
	}})
	if moduleSet == nil {
		moduleSet = reachable(module)
	}
	// The package's own graph adds what only it declares (fixtures).
	localSet := reachable(local)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := callgraph.FuncKey(fn)
			if moduleSet[key] || localSet[key] {
				continue
			}
			name := strings.TrimPrefix(key, pass.PkgPath()+".")
			pass.Reportf(fd.Name.Pos(), "%s is reached from no main, init, package var or kept declaration: delete it, or keep it with //mpiolint:ignore reach <reason>", name)
		}
	}
	return nil
}

// moduleSet is the module's reachable set, computed once per lint run.
var moduleSet map[string]bool

// reachable returns every node key reachable from g's roots along Refs.
func reachable(g *callgraph.Graph) map[string]bool {
	seen := map[string]bool{}
	var stack []string
	push := func(k string) {
		if !seen[k] {
			seen[k] = true
			stack = append(stack, k)
		}
	}
	for k := range g.Roots {
		push(k)
	}
	for k, n := range g.Nodes {
		if isRoot(n) {
			push(k)
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n := g.Nodes[k]; n != nil {
			for r := range n.Refs {
				push(r)
			}
		}
	}
	return seen
}

// isRoot reports whether a declared function is an entry point in its own
// right.
func isRoot(n *callgraph.Node) bool {
	if n.Decl == nil {
		return false
	}
	if marked(n.Decl) {
		return true
	}
	sig := n.Fn.Type().(*types.Signature)
	name := n.Fn.Name()
	if sig.Recv() == nil {
		return name == "init" || name == "main" && n.Fn.Pkg().Name() == "main"
	}
	if (name == "String" || name == "Error") && sig.Params().Len() == 0 && sig.Results().Len() == 1 {
		if b, ok := sig.Results().At(0).Type().(*types.Basic); ok && b.Kind() == types.String {
			return true
		}
	}
	return false
}

// marked reports whether fd's doc comment carries a well-formed
// `//mpiolint:ignore reach <reason>` directive.
func marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//mpiolint:ignore")
		if f := strings.Fields(rest); ok && len(f) >= 2 && f[0] == "reach" {
			return true
		}
	}
	return false
}
