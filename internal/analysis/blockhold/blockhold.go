// Package blockhold implements the mpiolint pass that flags may-block
// calls made while holding a sim.Resource — the cooperative-deadlock
// hazard.
//
// The simulator is a cooperative scheduler: a proc parked on a wait FIFO
// (Chan.Recv on an empty channel, Resource.Acquire on an exhausted
// resource, Future.Get, WaitGroup.Wait...) wakes only when *another proc*
// acts. A proc that parks while holding Resource units can therefore
// deadlock the run — the procs that would wake it may be the ones queued
// behind the units it holds — and even when it does not deadlock, it
// inflates every latency the experiments report by the time it slept.
//
// The pass runs a union-join dataflow over each function's control-flow
// graph (internal/analysis/cfg): the may-held set of Resource receivers
// grows at Resource.Acquire, shrinks at a matching Resource.Release, and
// every call whose callee is in the interprocedural may-park set
// (internal/analysis/callgraph, anchored at sim's Proc.park) is reported
// when the set can be non-empty. Timer waits (Proc.Wait) only
// self-wake through the event queue and are deliberately not in the park
// set — holding a resource across a modeled service time is exactly what
// Resource.Use does.
//
// Known imprecision, chosen deliberately:
//
//   - Receivers are matched by expression text (d.ioRes, c.credits), so
//     aliasing a resource through a second variable defeats the release
//     match and widens the window — conservative.
//   - A deferred Release does not close the window: the deferred call
//     runs at return, after any park in the body, which is exactly the
//     hazard, so `defer r.Release(n)` keeps the window open to Exit.
//   - An acquire whose release lives in another function (ownership
//     handed to a peer proc) holds to Exit here. A documented
//     `//mpiolint:ignore blockhold <why>` on the acquire records the
//     transfer and opens no window at all, so one directive at the
//     transfer site covers every downstream call it would have flagged.
package blockhold

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dafsio/internal/analysis"
	"dafsio/internal/analysis/callgraph"
	"dafsio/internal/analysis/cfg"
)

// Analyzer is the blockhold pass.
var Analyzer = &analysis.Analyzer{
	Name: "blockhold",
	Doc:  "flag may-park calls on CFG paths between sim.Resource.Acquire and its Release",
	Run:  run,
}

const (
	acquireKey = callgraph.SimPkgPath + ".Resource.Acquire"
	releaseKey = callgraph.SimPkgPath + ".Resource.Release"
)

func run(pass *analysis.Pass) error {
	moduleParks, err := callgraph.MayPark()
	if err != nil {
		return err
	}
	// Extend reachability into the package under analysis: its functions
	// (fixture packages included) are not in the module graph.
	local := callgraph.Build([]*analysis.Package{{
		Path:  pass.PkgPath(),
		Fset:  pass.Fset,
		Files: pass.Files,
		Types: pass.Pkg,
		Info:  pass.TypesInfo,
	}})
	localParks := local.ReachersOf(func(k string) bool {
		return moduleParks[k] || callgraph.IsParkAnchor(k)
	})
	parks := func(fn *types.Func) bool {
		k := callgraph.FuncKey(fn)
		return moduleParks[k] || localParks[k] || callgraph.IsParkAnchor(k)
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, parks)
		}
	}
	return nil
}

// event is one held-set-relevant action inside a basic block, in source
// order.
type event struct {
	kind   int // evAcquire, evRelease, evPark
	token  string
	callee string // evPark: display name of the parking callee
	pos    token.Pos
}

const (
	evAcquire = iota
	evRelease
	evPark
)

// checkFunc runs the may-held dataflow over one function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, parks func(*types.Func) bool) {
	closureParks := closureParkVars(pass.TypesInfo, fd, parks)
	g := cfg.New(fd.Body)
	events := make([][]event, len(g.Blocks))
	any := false
	for _, blk := range g.Blocks {
		evs := blockEvents(pass.TypesInfo, blk, parks, closureParks)
		// An acquire annotated with an ignore directive is a documented
		// ownership transfer: it opens no window at all.
		kept := evs[:0]
		for _, ev := range evs {
			if ev.kind == evAcquire && pass.IgnoredAt(ev.pos) {
				continue
			}
			kept = append(kept, ev)
		}
		events[blk.Index] = kept
		if len(events[blk.Index]) > 0 {
			any = true
		}
	}
	if !any {
		return
	}

	// Union-join fixpoint: in[b] = ∪ out[pred], out[b] = step(b, in[b]).
	order := reachable(g)
	preds := map[*cfg.Block][]*cfg.Block{}
	for _, blk := range order {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], blk)
		}
	}
	in := make([]map[string]bool, len(g.Blocks))
	out := make([]map[string]bool, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for _, blk := range order {
			ni := map[string]bool{}
			for _, p := range preds[blk] {
				for tok := range out[p.Index] {
					ni[tok] = true
				}
			}
			no := step(copySet(ni), events[blk.Index], nil)
			if !sameSet(in[blk.Index], ni) || !sameSet(out[blk.Index], no) {
				in[blk.Index], out[blk.Index] = ni, no
				changed = true
			}
		}
	}

	// Reporting sweep, deduplicated across the paths that join at a block.
	seen := map[string]bool{}
	for _, blk := range order {
		step(copySet(in[blk.Index]), events[blk.Index], func(ev event, held map[string]bool) {
			names := make([]string, 0, len(held))
			for tok := range held {
				names = append(names, tok)
			}
			sort.Strings(names)
			key := pass.Fset.Position(ev.pos).String() + "|" + ev.callee
			if seen[key] {
				return
			}
			seen[key] = true
			pass.Reportf(ev.pos,
				"%s may park the proc while holding %s: a cooperative deadlock risk (release before blocking, or document the ownership transfer with //mpiolint:ignore blockhold)",
				ev.callee, strings.Join(names, ", "))
		})
	}
}

// step folds a block's events over a held set, invoking report (when
// non-nil) for each hazardous park.
func step(held map[string]bool, evs []event, report func(event, map[string]bool)) map[string]bool {
	for _, ev := range evs {
		switch ev.kind {
		case evAcquire:
			if len(held) > 0 && report != nil {
				report(ev, held)
			}
			held[ev.token] = true
		case evRelease:
			delete(held, ev.token)
		case evPark:
			if len(held) > 0 && report != nil {
				report(ev, held)
			}
		}
	}
	return held
}

// blockEvents extracts the ordered acquire/release/park events of one
// block. Function-literal interiors are skipped (their bodies execute when
// called, and calls through sole-assignment closure variables are
// classified via closureParks); deferred statements are skipped entirely —
// a deferred call runs at return, so a deferred Release never closes the
// window and a deferred park is out of scope here.
func blockEvents(info *types.Info, blk *cfg.Block, parks func(*types.Func) bool, closureParks map[*types.Var]bool) []event {
	var evs []event
	for _, n := range blk.Nodes {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				evs = append(evs, classify(info, x, parks, closureParks)...)
			}
			return true
		})
	}
	return evs
}

// classify maps one call expression to its events.
func classify(info *types.Info, call *ast.CallExpr, parks func(*types.Func) bool, closureParks map[*types.Var]bool) []event {
	fn := callgraph.ResolveCallee(info, call)
	if fn == nil {
		// Dynamic call: a closure held in a sole-assignment local still
		// classifies; anything else is invisible (noted imprecision).
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && closureParks[v] {
				return []event{{kind: evPark, callee: id.Name, pos: call.Pos()}}
			}
		}
		return nil
	}
	switch callgraph.FuncKey(fn) {
	case acquireKey:
		return []event{{kind: evAcquire, token: recvText(call), callee: displayName(fn), pos: call.Pos()}}
	case releaseKey:
		return []event{{kind: evRelease, token: recvText(call), pos: call.Pos()}}
	}
	if parks(fn) {
		return []event{{kind: evPark, callee: displayName(fn), pos: call.Pos()}}
	}
	return nil
}

// recvText renders the receiver expression of a method call ("d.ioRes",
// "c.credits") — the held-set token.
func recvText(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return types.ExprString(call.Fun)
}

// displayName renders a callee compactly: "sim.Chan.Recv", "dafs.Client.start".
func displayName(fn *types.Func) string {
	key := callgraph.FuncKey(fn)
	if i := strings.LastIndex(key, "/"); i >= 0 {
		key = key[i+1:]
	}
	return key
}

// closureParkVars finds local variables bound exactly once to a function
// literal and reports which of those literals can park. Nested closure
// calls resolve through the same map by fixpoint.
func closureParkVars(info *types.Info, fd *ast.FuncDecl, parks func(*types.Func) bool) map[*types.Var]bool {
	lits := map[*types.Var]*ast.FuncLit{}
	bound := map[*types.Var]int{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			if v, ok = info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		bound[v]++
		if lit, ok := rhs.(*ast.FuncLit); ok {
			lits[v] = lit
		} else {
			delete(lits, v)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	res := map[*types.Var]bool{}
	for changed := true; changed; {
		changed = false
		for v, lit := range lits {
			if res[v] || bound[v] != 1 {
				continue
			}
			if litParks(info, lit, parks, res) {
				res[v] = true
				changed = true
			}
		}
	}
	return res
}

// litParks reports whether a function literal's body contains a parking
// call (directly or through an already-classified closure variable).
func litParks(info *types.Info, lit *ast.FuncLit, parks func(*types.Func) bool, closureParks map[*types.Var]bool) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := callgraph.ResolveCallee(info, call); fn != nil {
			if parks(fn) {
				found = true
			}
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && closureParks[v] {
				found = true
			}
		}
		return true
	})
	return found
}

// reachable returns the blocks reachable from Entry in stable index order.
func reachable(g *cfg.Graph) []*cfg.Block {
	seen := map[*cfg.Block]bool{}
	var walk func(*cfg.Block)
	var order []*cfg.Block
	walk = func(blk *cfg.Block) {
		if seen[blk] {
			return
		}
		seen[blk] = true
		order = append(order, blk)
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	sort.Slice(order, func(i, j int) bool { return order[i].Index < order[j].Index })
	return order
}

// sameSet reports set equality (nil counts as empty).
func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// copySet clones a held set.
func copySet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}
