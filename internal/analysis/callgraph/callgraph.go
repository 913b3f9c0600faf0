// Package callgraph builds a typed, module-wide call graph and derives the
// simulator's scheduling set from it.
//
// It generalizes the sink derivation that used to live inside the detrand
// pass (a syntactic, bare-name, sim-package-only fixpoint) into a reusable
// layer the passes share:
//
//   - Nodes are function declarations, keyed by a loader-independent
//     string ("pkgpath.Recv.Method" / "pkgpath.Func"), so sets derived
//     from one type-checked load can be consulted from another.
//   - Edges are static calls resolved through go/types (method calls via
//     Selections, package-level calls via Uses), plus a conservative
//     interface closure: a call through an interface method adds edges to
//     every module type implementing that interface.
//   - A second edge set, Refs, holds every function the body names at all:
//     calls, function and method values (SpawnDaemon(name, s.worker)),
//     and the bodies of asynchronous literals. It is the reach pass's
//     edge set; Calls, which the scheduling set uses, ignores values.
//   - Function literals are merged into their enclosing declaration —
//     calling a locally-built closure runs its body on the caller's
//     stack — except literals handed to the kernel's asynchronous
//     entry points (Spawn, SpawnDaemon, SpawnEngine, At, After, ...), whose
//     bodies run on some other proc or in kernel context later: a caller
//     does not block just because the proc it spawned eventually does.
//
// One anchor set is derived, may-block (the detrand sinks): everything
// reaching Kernel.schedule or pushWaiter — mutating event order or
// wait-list order, the set whose call order is semantically
// order-sensitive.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"dafsio/internal/analysis"
)

// SimPkgPath is the simulator package whose funnels anchor every derived
// set.
const SimPkgPath = modulePath + "/internal/sim"

// modulePath is the module's import path prefix.
const modulePath = "dafsio"

// The funnels (see internal/sim/kernel.go and proc.go): every event-queue
// insertion flows through Kernel.schedule, and every wait-list
// registration through pushWaiter.
const (
	anchorSchedule = SimPkgPath + ".Kernel.schedule"
	anchorEnlist   = SimPkgPath + ".pushWaiter"
)

// asyncSpawners are sim entry points whose function-literal arguments run
// later, on another proc or in kernel context — not on the caller's stack.
var asyncSpawners = map[string]bool{
	SimPkgPath + ".Kernel.Spawn":       true,
	SimPkgPath + ".Kernel.SpawnDaemon": true,
	SimPkgPath + ".Kernel.SpawnEngine": true,
	SimPkgPath + ".Proc.Spawn":         true,
	SimPkgPath + ".Kernel.At":          true,
	SimPkgPath + ".Kernel.After":       true,
	SimPkgPath + ".Kernel.NewEvent":    true,
}

// FuncKey renders a loader-independent identity for a function or method:
// "pkgpath.Recv.Name" for methods (receiver unwrapped to its named type,
// generics normalized to their origin), "pkgpath.Name" for functions.
// Functions outside any package (builtins) key as their bare name.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	name := fn.Name()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if rn := recvTypeName(sig.Recv().Type()); rn != "" {
			if pkg == "" {
				return rn + "." + name
			}
			return pkg + "." + rn + "." + name
		}
	}
	if pkg == "" {
		return name
	}
	return pkg + "." + name
}

// recvTypeName unwraps a receiver type to its named type's name ("" for
// anonymous receivers, which cannot be declared anyway).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	if n, ok := t.(*types.Interface); ok {
		_ = n // anonymous interface receiver: no stable name
	}
	return ""
}

// Node is one declared function or method.
type Node struct {
	Key      string
	Fn       *types.Func
	Decl     *ast.FuncDecl
	Exported bool // exported name, and exported receiver type if a method
	Calls    map[string]bool
	Refs     map[string]bool // every function named in the body, Calls included
}

// Graph is a call graph over one or more loaded packages.
type Graph struct {
	Nodes map[string]*Node
	// Roots holds the functions reached from outside any declaration:
	// those named in a package-level var initializer (tables of funcs
	// such as bench.All, Analyzer values), and the methods code outside
	// the module calls through its own interfaces (bindExternal).
	Roots map[string]bool
}

// Build constructs the graph of every function declared in pkgs. Edges
// point at callee keys, which may name functions outside pkgs (calls into
// other packages resolve to their keys even when their bodies are not in
// the graph — reachability simply stops there).
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{Nodes: map[string]*Node{}, Roots: map[string]bool{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					collectRefs(pkg.Info, gd, g.Roots)
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{
					Key:      FuncKey(obj),
					Fn:       obj,
					Decl:     fd,
					Exported: declExported(fd),
					Calls:    map[string]bool{},
					Refs:     map[string]bool{},
				}
				collectCalls(pkg.Info, fd.Body, n.Calls)
				collectRefs(pkg.Info, fd.Body, n.Refs)
				g.Nodes[n.Key] = n
			}
		}
	}
	named := namedTypes(pkgs)
	g.bindInterfaces(pkgs, named)
	g.bindExternal(pkgs, named)
	return g
}

// namedTypes lists every non-alias named type declared at package level
// in pkgs.
func namedTypes(pkgs []*analysis.Package) []*types.Named {
	var named []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	return named
}

// declExported mirrors detrand's historical rule: a sink must be exported,
// and on an exported receiver if a method.
func declExported(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return fd.Recv == nil
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// collectCalls walks body and records the key of every statically resolved
// callee. Function literals are walked in place (their calls belong to the
// encloser) unless they are arguments to an asynchronous spawner.
func collectCalls(info *types.Info, body ast.Node, out map[string]bool) {
	skip := asyncLiterals(info, body)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skip[lit] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := ResolveCallee(info, call); fn != nil {
			out[FuncKey(fn)] = true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// collectRefs records the key of every function or method that an
// identifier under root resolves to, whether called or used as a value.
func collectRefs(info *types.Info, root ast.Node, out map[string]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out[FuncKey(fn)] = true
			}
		}
		return true
	})
}

// asyncLiterals finds function literals passed directly to asynchronous
// spawn entry points inside body.
func asyncLiterals(info *types.Info, body ast.Node) map[*ast.FuncLit]bool {
	skip := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := ResolveCallee(info, call)
		if fn == nil || !asyncSpawners[FuncKey(fn)] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				skip[lit] = true
			}
		}
		return true
	})
	return skip
}

// ResolveCallee statically resolves a call expression to the called
// function or method, or nil for dynamic calls (function values, builtins,
// type conversions).
func ResolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				if fn, ok := sel.Obj().(*types.Func); ok {
					return fn
				}
			}
			return nil
		}
		// Package-qualified call (pkg.Func) or method expression (T.Method).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// bindInterfaces adds the conservative dynamic-dispatch closure: for every
// interface method that appears as a callee, edge it to the corresponding
// concrete method of every module type implementing the interface.
func (g *Graph) bindInterfaces(pkgs []*analysis.Package, named []*types.Named) {
	// Interface methods that are called somewhere: gather them from each
	// package's Selections (node call sets only keep keys).
	called := map[string]*types.Func{}
	for _, pkg := range pkgs {
		for _, sel := range pkg.Info.Selections {
			if sel.Kind() != types.MethodVal {
				continue
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			if recvInterface(fn) != nil {
				called[FuncKey(fn)] = fn
			}
		}
	}
	keys := make([]string, 0, len(called))
	for k := range called {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, ikey := range keys {
		m := called[ikey]
		iface := recvInterface(m)
		if iface == nil {
			continue
		}
		inode := g.Nodes[ikey]
		if inode == nil {
			inode = &Node{Key: ikey, Fn: m, Calls: map[string]bool{}, Refs: map[string]bool{}}
			g.Nodes[ikey] = inode
		}
		for _, nt := range named {
			if types.IsInterface(nt) {
				continue
			}
			ptr := types.NewPointer(nt)
			if !types.Implements(nt, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if impl, ok := obj.(*types.Func); ok {
				inode.Calls[FuncKey(impl)] = true
				inode.Refs[FuncKey(impl)] = true
			}
		}
	}
}

// bindExternal adds to Roots the methods that code outside the module
// calls through its own interfaces (types.Importer, sort.Interface...):
// for every such interface that a field, variable or parameter used in
// pkgs is typed with, each type in pkgs that implements it keeps the
// methods the interface names.
func (g *Graph) bindExternal(pkgs []*analysis.Package, named []*types.Named) {
	local := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		local[pkg.Types] = true
	}
	ifaces := map[*types.Interface]bool{}
	note := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			ifaces[iface] = true
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() == nil || local[obj.Pkg()] || analysis.PathHasPrefix(obj.Pkg().Path(), modulePath) {
				continue
			}
			switch o := obj.(type) {
			case *types.Var:
				note(o.Type())
			case *types.Func:
				params := o.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					note(params.At(i).Type())
				}
			}
		}
	}
	for iface := range ifaces {
		for _, nt := range named {
			ptr := types.NewPointer(nt)
			if types.IsInterface(nt) || !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if impl, ok := obj.(*types.Func); ok {
					g.Roots[FuncKey(impl)] = true
				}
			}
		}
	}
}

// recvInterface returns the interface a method's receiver names, or nil
// for concrete methods.
func recvInterface(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return iface
	}
	return nil
}

// ReachersOf runs the transitive-callers fixpoint: the returned set holds
// every node key from which some anchor is reachable, anchors included
// (whether or not the anchor has a node in this graph).
func (g *Graph) ReachersOf(isAnchor func(key string) bool) map[string]bool {
	reach := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for key, n := range g.Nodes {
			if reach[key] {
				continue
			}
			hit := isAnchor(key)
			for callee := range n.Calls {
				if hit {
					break
				}
				hit = reach[callee] || isAnchor(callee)
			}
			if hit {
				reach[key] = true
				changed = true
			}
		}
	}
	return reach
}

// moduleCache memoizes the whole-module graph and its derived set; the
// source is fixed for the lifetime of a lint run.
var moduleCache struct {
	once  sync.Once
	graph *Graph
	sinks map[string]bool
	err   error
}

// Module returns the call graph of every package in the dafsio module
// (non-test files), loading and type-checking them on first use.
func Module() (*Graph, error) {
	moduleCache.once.Do(func() {
		ld := analysis.NewLoader("")
		pkgs, err := ld.Load("dafsio/...")
		if err != nil {
			moduleCache.err = fmt.Errorf("callgraph: loading module: %w", err)
			return
		}
		g := Build(pkgs)
		moduleCache.graph = g
		moduleCache.sinks = g.ReachersOf(func(k string) bool {
			return k == anchorEnlist || k == anchorSchedule
		})
	})
	return moduleCache.graph, moduleCache.err
}

// SimSinks returns detrand's scheduling-sink set: every exported sim
// function or method (on an exported receiver) that transitively reaches
// Kernel.schedule or pushWaiter, keyed "Recv.Method" for methods and by
// bare name for functions — the key shape detrand matches against
// types.Selection receivers.
func SimSinks() (map[string]bool, error) {
	g, err := Module()
	if err != nil {
		return nil, err
	}
	sinks := map[string]bool{}
	prefix := SimPkgPath + "."
	for key, n := range g.Nodes {
		if n.Decl == nil || !n.Exported || !moduleCache.sinks[key] {
			continue
		}
		if strings.HasPrefix(key, prefix) {
			sinks[strings.TrimPrefix(key, prefix)] = true
		}
	}
	return sinks, nil
}
