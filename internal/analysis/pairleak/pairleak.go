// Package pairleak implements the mpiolint pass that flags acquire calls
// with no matching release on some path to function exit.
//
// Three pairings matter to the reproduction's resource model:
//
//   - sim.Resource units: r.Acquire(p, n) without r.Release(n) starves
//     every proc queued behind the resource for the rest of the run.
//   - Registered staging buffers: the striped driver's getStage without
//     putStage / putStageAll leaks a pinned, NIC-registered window —
//     the pool never sees it again and the registration is lost.
//   - VIA registrations: NIC.Register without NIC.Deregister pins
//     simulated memory forever (the registration *cache* owns its own
//     regions; only raw Register results are tracked).
//
// The pass runs a may-be-open dataflow over the control-flow graph
// (internal/analysis/cfg): an acquire opens a token, a matching release
// closes it, and any token still open at a return (or fall-off-the-end)
// edge is reported at its acquire site. Panic edges are not leak exits —
// a panicking proc abandons the whole run. A *deferred* release closes
// its token (the deferred call runs at every exit), the opposite of
// blockhold's window rule, and correctly so: pairleak cares that the
// release happens at all, blockhold cares what runs before it.
//
// Ownership transfer is modeled by escape, which silently closes a value
// token: storing the value in a struct or slice that outlives the call
// (composite literal, field write), returning it, or passing it to any
// call hands responsibility to the new owner — the release functions
// (putStage, putStageAll, NIC.Deregister) are just the canonical
// consumers, and a non-release callee's obligation is checked where it
// lives. A value captured by a function literal is untracked for the
// same reason. Resource-unit tokens have no escape: units are released
// by expression text (c.credits), and a transfer to a peer proc is
// exactly the case for a documented `//mpiolint:ignore pairleak <why>`.
package pairleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"dafsio/internal/analysis"
	"dafsio/internal/analysis/callgraph"
	"dafsio/internal/analysis/cfg"
)

// Analyzer is the pairleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "pairleak",
	Doc:  "flag CFG paths where an acquire (Resource.Acquire, getStage, NIC.Register) has no matching release before exit",
	Run:  run,
}

const (
	resAcquireKey = callgraph.SimPkgPath + ".Resource.Acquire"
	resReleaseKey = callgraph.SimPkgPath + ".Resource.Release"
)

// acquireKeys maps value-producing acquire callees to a short display name
// for diagnostics. Their releases (putStage / putStageAll / NIC.Deregister)
// need no special-casing: passing a tracked value to ANY call hands
// ownership to the callee and closes the pair here — the release functions
// are simply the canonical consumers.
var acquireKeys = map[string]string{
	"dafsio/internal/mpiio.striped.getStage": "staging buffer from getStage",
	"dafsio/internal/via.NIC.Register":       "registered region from NIC.Register",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// tokenInfo describes one tracked acquisition.
type tokenInfo struct {
	display string    // what leaked, for the report
	pos     token.Pos // first acquire site
}

// event is one open/close action inside a basic block, in source order.
type event struct {
	kind  int // evOpen, evClose
	token string
	pos   token.Pos
	agg   bool // element of a tracked slice: exempt from re-acquire checks
}

const (
	evOpen = iota
	evClose
)

// funcScan carries per-function analysis state.
type funcScan struct {
	pass    *analysis.Pass
	info    *types.Info
	tracked map[*types.Var]bool       // local vars holding acquire results
	alias   map[*types.Var]*types.Var // range var -> ranged tracked slice
	tokens  map[string]*tokenInfo
}

// checkFunc runs the may-be-open dataflow over one function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	fs := &funcScan{
		pass:    pass,
		info:    pass.TypesInfo,
		tracked: map[*types.Var]bool{},
		alias:   map[*types.Var]*types.Var{},
		tokens:  map[string]*tokenInfo{},
	}
	fs.prepass(fd)

	g := cfg.New(fd.Body)
	events := make([][]event, len(g.Blocks))
	any := false
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			fs.scanStmt(n, &events[blk.Index])
		}
		if len(events[blk.Index]) > 0 {
			any = true
		}
	}
	if !any {
		return
	}

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
			no := step(copySet(ni), events[blk.Index])
			if !sameSet(in[blk.Index], ni) || !sameSet(out[blk.Index], no) {
				in[blk.Index], out[blk.Index] = ni, no
				changed = true
			}
		}
	}

	// Tokens still open where control reaches Exit leak — unless the only
	// way out of the block is a panic, which abandons the run.
	leaked := map[string]bool{}
	for _, blk := range order {
		if blk == g.Exit || endsInPanic(blk) {
			continue
		}
		exits := false
		for _, s := range blk.Succs {
			if s == g.Exit {
				exits = true
			}
		}
		if !exits {
			continue
		}
		for tok := range out[blk.Index] {
			leaked[tok] = true
		}
	}
	// Re-acquire while open: the previous acquisition can never be
	// released through this variable again.
	reopened := map[string]token.Pos{}
	for _, blk := range order {
		held := copySet(in[blk.Index])
		for _, ev := range events[blk.Index] {
			switch ev.kind {
			case evOpen:
				if held[ev.token] && !ev.agg {
					if _, dup := reopened[ev.token]; !dup {
						reopened[ev.token] = ev.pos
					}
				}
				held[ev.token] = true
			case evClose:
				delete(held, ev.token)
			}
		}
	}

	var toks []string
	for tok := range leaked {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		ti := fs.tokens[tok]
		pass.Reportf(ti.pos,
			"%s is not released on every path to return: release it on each path, defer the release, or document the handoff with //mpiolint:ignore pairleak",
			ti.display)
	}
	var rtoks []string
	for tok := range reopened {
		rtoks = append(rtoks, tok)
	}
	sort.Strings(rtoks)
	for _, tok := range rtoks {
		pass.Reportf(reopened[tok],
			"%s is reacquired while a previous acquisition may still be unreleased (loop or branch re-acquire)",
			fs.tokens[tok].display)
	}
}

// step folds a block's events over an open set.
func step(open map[string]bool, evs []event) map[string]bool {
	for _, ev := range evs {
		switch ev.kind {
		case evOpen:
			open[ev.token] = true
		case evClose:
			delete(open, ev.token)
		}
	}
	return open
}

// prepass finds the local variables that ever hold an acquire result,
// disqualifies those captured by function literals (ownership moved into
// the closure), and resolves range aliases (for _, sb := range sbs).
func (fs *funcScan) prepass(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || fs.acquireName(call) == "" {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					if v := fs.localVar(lhs); v != nil {
						fs.tracked[v] = true
					}
				case *ast.IndexExpr:
					if id, ok := lhs.X.(*ast.Ident); ok {
						if v := fs.localVar(id); v != nil {
							fs.tracked[v] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			slice := fs.localVar(id)
			if slice == nil {
				return true
			}
			if val, ok := n.Value.(*ast.Ident); ok {
				if v := fs.localVar(val); v != nil {
					fs.alias[v] = slice
				}
			}
		}
		return true
	})
	// A var used inside a function literal is owned by the closure from
	// the pass's point of view: untrack it entirely.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v := fs.localVar(id); v != nil {
					delete(fs.tracked, v)
				}
			}
			return true
		})
		return false
	})
}

// localVar resolves an identifier to the *types.Var it names (definition
// or use), or nil.
func (fs *funcScan) localVar(id *ast.Ident) *types.Var {
	if v, ok := fs.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := fs.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// acquireName classifies a call as a value-producing acquire, returning
// the display name ("" if not an acquire).
func (fs *funcScan) acquireName(call *ast.CallExpr) string {
	fn := callgraph.ResolveCallee(fs.info, call)
	if fn == nil {
		return ""
	}
	return acquireKeys[callgraph.FuncKey(fn)]
}

// valueToken renders the dataflow token of a tracked variable; resource
// tokens use a "res:" prefix over the receiver's expression text.
func valueToken(v *types.Var) string {
	return fmt.Sprintf("val:%s@%d", v.Name(), v.Pos())
}

// tokenOf resolves an expression to the tracked variable it denotes: the
// variable itself, an element of a tracked slice, or a range alias.
func (fs *funcScan) tokenOf(e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v := fs.localVar(e)
		if v == nil {
			return nil
		}
		if fs.tracked[v] {
			return v
		}
		if s, ok := fs.alias[v]; ok && fs.tracked[s] {
			return s
		}
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if v := fs.localVar(id); v != nil && fs.tracked[v] {
				return v
			}
		}
	}
	return nil
}

// open records an acquire of a tracked variable.
func (fs *funcScan) open(v *types.Var, display string, pos token.Pos, evs *[]event) {
	tok := valueToken(v)
	if fs.tokens[tok] == nil {
		fs.tokens[tok] = &tokenInfo{display: display, pos: pos}
	}
	*evs = append(*evs, event{kind: evOpen, token: tok, pos: pos})
}

// openAgg records an acquire into an element of a tracked slice; distinct
// elements are one aggregate token, so re-acquire checks don't apply.
func (fs *funcScan) openAgg(v *types.Var, display string, pos token.Pos, evs *[]event) {
	tok := valueToken(v)
	if fs.tokens[tok] == nil {
		fs.tokens[tok] = &tokenInfo{display: display, pos: pos}
	}
	*evs = append(*evs, event{kind: evOpen, token: tok, pos: pos, agg: true})
}

// close records a release or escape of a tracked variable.
func (fs *funcScan) close(v *types.Var, pos token.Pos, evs *[]event) {
	*evs = append(*evs, event{kind: evClose, token: valueToken(v), pos: pos})
}

// scanStmt emits the events of one block node in source order.
func (fs *funcScan) scanStmt(n ast.Node, evs *[]event) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, rhs := range n.Rhs {
				fs.scanAssignPair(n.Lhs[i], rhs, evs)
			}
			return
		}
		for _, rhs := range n.Rhs {
			fs.walk(rhs, evs)
		}
		for _, lhs := range n.Lhs {
			fs.walkAssignTarget(lhs, evs)
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if v := fs.tokenOf(res); v != nil {
				// Returned: ownership moves to the caller.
				fs.close(v, res.Pos(), evs)
				continue
			}
			fs.walk(res, evs)
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if name := fs.acquireName(call); name != "" {
				// Result discarded: leaked the instant it is acquired.
				fs.pass.Reportf(call.Pos(), "result of acquire dropped: %s is never released", name)
				return
			}
		}
		fs.walk(n.X, evs)
	case *ast.DeferStmt:
		// A deferred release runs at every exit: it closes the pair.
		fs.walk(n.Call, evs)
	case *ast.GoStmt:
		fs.walk(n.Call, evs)
	default:
		// Remaining statements (sends, incdec, decls...) and controlling
		// expressions (if conditions, range operands, switch tags...):
		// scan for calls and tracked-value uses.
		fs.walk(n, evs)
	}
}

// scanAssignPair handles one lhs = rhs pair.
func (fs *funcScan) scanAssignPair(lhs, rhs ast.Expr, evs *[]event) {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if name := fs.acquireName(call); name != "" {
			fs.walkCallParts(call, evs)
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if v := fs.localVar(l); v != nil && fs.tracked[v] {
					fs.open(v, name, call.Pos(), evs)
					return
				}
			case *ast.IndexExpr:
				if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
					if v := fs.localVar(id); v != nil && fs.tracked[v] {
						fs.walk(l.Index, evs)
						fs.openAgg(v, name, call.Pos(), evs)
						return
					}
				}
				fs.walk(l, evs)
			default:
				// Acquire stored straight into a field/map/global: the
				// containing object owns it.
				fs.walkAssignTarget(l, evs)
			}
			return
		}
	}
	fs.walk(rhs, evs)
	// Overwriting a tracked variable without an acquire closes it
	// (conservatively silent: the old value may have been moved).
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if v := fs.localVar(id); v != nil && fs.tracked[v] {
			fs.close(v, lhs.Pos(), evs)
			return
		}
	}
	fs.walkAssignTarget(lhs, evs)
}

// walkAssignTarget scans an assignment target's subexpressions (indexes,
// receivers) without treating the target itself as a value use. Writing a
// tracked value INTO an element or field is an escape handled by walk on
// the RHS side.
func (fs *funcScan) walkAssignTarget(lhs ast.Expr, evs *[]event) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		// plain store target: no value use
	case *ast.IndexExpr:
		fs.walk(l.Index, evs)
		if fs.tokenOf(l.X) == nil {
			fs.walk(l.X, evs)
		}
	case *ast.SelectorExpr:
		fs.walk(l.X, evs)
	case *ast.StarExpr:
		fs.walk(l.X, evs)
	default:
		fs.walk(l, evs)
	}
}

// walk scans an expression tree for call events and tracked-value uses.
// Any use of a tracked value outside a recognized release call is an
// escape: ownership moves, the token closes silently.
func (fs *funcScan) walk(n ast.Node, evs *[]event) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // captured vars were untracked in the prepass
		case *ast.CallExpr:
			fs.scanCall(x, evs)
			return false
		case *ast.SelectorExpr:
			if fs.tokenOf(x.X) != nil {
				return false // field read of a tracked value: harmless
			}
			return true
		case *ast.Ident:
			if v := fs.tokenOf(x); v != nil {
				fs.close(v, x.Pos(), evs) // escape
			}
		}
		return true
	})
}

// walkCallParts scans a call's receiver chain and arguments (used when the
// call itself was already classified by the caller).
func (fs *funcScan) walkCallParts(call *ast.CallExpr, evs *[]event) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		fs.walk(sel.X, evs)
	}
	for _, arg := range call.Args {
		fs.walk(arg, evs)
	}
}

// scanCall classifies one call: resource acquire/release by receiver text,
// value release/escape by argument, and recurses everywhere else.
func (fs *funcScan) scanCall(call *ast.CallExpr, evs *[]event) {
	fn := callgraph.ResolveCallee(fs.info, call)
	key := ""
	if fn != nil {
		key = callgraph.FuncKey(fn)
	}
	switch key {
	case resAcquireKey, resReleaseKey:
		recv := ""
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv = types.ExprString(sel.X)
			fs.walk(sel.X, evs)
		}
		tok := "res:" + recv
		if key == resAcquireKey {
			if fs.pass.IgnoredAt(call.Pos()) {
				// A documented ownership transfer at the acquire site: the
				// units are a peer proc's obligation, nothing opens here.
				for _, arg := range call.Args {
					fs.walk(arg, evs)
				}
				return
			}
			if fs.tokens[tok] == nil {
				fs.tokens[tok] = &tokenInfo{
					display: fmt.Sprintf("resource units acquired on %s", recv),
					pos:     call.Pos(),
				}
			}
			*evs = append(*evs, event{kind: evOpen, token: tok, pos: call.Pos()})
		} else {
			*evs = append(*evs, event{kind: evClose, token: tok, pos: call.Pos()})
		}
		for _, arg := range call.Args {
			fs.walk(arg, evs)
		}
		return
	}
	if name := fs.acquireName(call); name != "" {
		// An acquire reached through walk: its result is consumed by an
		// enclosing expression (composite literal, call argument, return)
		// — ownership moves with the value, nothing to track here.
		fs.walkCallParts(call, evs)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		fs.walk(sel.X, evs)
	}
	for _, arg := range call.Args {
		if v := fs.tokenOf(arg); v != nil {
			// Released by a recognized consumer (releaseKeys), or escaped
			// into any other callee: either way the pair is no longer this
			// function's responsibility.
			fs.close(v, arg.Pos(), evs)
			continue
		}
		fs.walk(arg, evs)
	}
}

// endsInPanic reports whether a block's last node is a panic call (its
// Exit edge is a run-abandoning panic edge, not a return).
func endsInPanic(blk *cfg.Block) bool {
	if len(blk.Nodes) == 0 {
		return false
	}
	es, ok := blk.Nodes[len(blk.Nodes)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// reachable returns the blocks reachable from Entry in stable index order.
func reachable(g *cfg.Graph) []*cfg.Block {
	seen := map[*cfg.Block]bool{}
	var order []*cfg.Block
	var walk func(*cfg.Block)
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

// copySet clones an open set.
func copySet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}
