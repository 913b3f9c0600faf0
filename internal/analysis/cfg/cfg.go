// Package cfg builds per-function control-flow graphs from go/ast, for the
// flow-sensitive mpiolint pass (blockhold).
//
// The graph is intentionally modest: nodes are basic blocks holding the
// statements and controlling expressions that execute in them, edges are
// the possible successors. It models branches (if/switch/type switch/
// select), loops (for/range, including break/continue with labels and
// goto), early returns, and panic edges; defer statements stay in their
// block (the pass decides what a deferred call means — blockhold treats
// the window as held until the function returns). A call to the predeclared
// panic ends its block with an edge to Exit, which models the sim kernel's
// behaviour: a panicking proc does not continue, the run is abandoned.
//
// Everything is purely syntactic — no go/types — so a graph can be built
// for any parsed function, fixtures included. Passes layer type
// information on top when classifying the calls a block contains.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Block is one basic block. Nodes holds, in execution order, the
// statements of the block plus the controlling expressions evaluated in it
// (an if condition, a switch tag, a range operand), so a pass scanning a
// block sees every call that runs there.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.body", ... (diagnostic aid)
	Nodes []ast.Node
	Succs []*Block
}

// Graph is the control-flow graph of one function body. Exit is the single
// synthetic sink: every return, every fall-off-the-end, and every panic
// edge leads to it.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// builder carries construction state.
type builder struct {
	g      *Graph
	cur    *Block // nil after a terminator (return/panic/branch)
	breaks []*frame
	labels map[string]*labelInfo
}

// frame is one enclosing breakable/continuable construct.
type frame struct {
	label    string // enclosing LabeledStmt's name, "" if none
	brk      *Block // break target
	cont     *Block // continue target, nil for switch/select
	isLoop   bool
	fallthru *Block // next case clause's body (switch only)
}

// labelInfo resolves gotos; forward gotos patch in when the label is
// reached.
type labelInfo struct {
	block   *Block   // block starting at the label, once known
	pending []*Block // blocks ending in a forward goto to this label
}

// New builds the graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = g.Entry
	b.stmtList(body.List, "")
	// Falling off the end of the body returns.
	b.jump(g.Exit)
	return g
}

// newBlock appends a fresh block to the graph.
func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add records a node in the current block (no-op in dead code).
func (b *builder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// jump ends the current block with an edge to target.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, target)
	}
	b.cur = nil
}

// startBlock begins emitting into blk.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

// stmtList emits a sequence of statements. enclosingLabel names the label
// wrapping the *first* construct, so `L: for ...` registers L as its
// break/continue label.
func (b *builder) stmtList(list []ast.Stmt, enclosingLabel string) {
	for i, s := range list {
		lbl := ""
		if i == 0 {
			lbl = enclosingLabel
		}
		b.stmt(s, lbl)
	}
}

// stmt emits one statement.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List, "")

	case *ast.LabeledStmt:
		name := s.Label.Name
		li := b.labels[name]
		if li == nil {
			li = &labelInfo{}
			b.labels[name] = li
		}
		blk := b.newBlock("label." + name)
		li.block = blk
		for _, from := range li.pending {
			from.Succs = append(from.Succs, blk)
		}
		li.pending = nil
		b.jump(blk)
		b.startBlock(blk)
		b.stmt(s.Stmt, name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		if b.cur != nil {
			b.cur.Succs = append(b.cur.Succs, then)
			if els != nil {
				b.cur.Succs = append(b.cur.Succs, els)
			} else {
				b.cur.Succs = append(b.cur.Succs, done)
			}
		}
		b.startBlock(then)
		b.stmtList(s.Body.List, "")
		b.jump(done)
		if els != nil {
			b.startBlock(els)
			b.stmt(s.Else, "")
			b.jump(done)
		}
		b.startBlock(done)

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			head.Succs = append(head.Succs, body, done)
		} else {
			head.Succs = append(head.Succs, body)
		}
		b.breaks = append(b.breaks, &frame{label: label, brk: done, cont: post, isLoop: true})
		b.startBlock(body)
		b.stmtList(s.Body.List, "")
		b.jump(post)
		if s.Post != nil {
			b.startBlock(post)
			b.add(s.Post)
			b.jump(head)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.startBlock(done)

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.jump(head)
		head.Succs = append(head.Succs, body, done)
		b.breaks = append(b.breaks, &frame{label: label, brk: done, cont: head, isLoop: true})
		b.startBlock(body)
		b.stmtList(s.Body.List, "")
		b.jump(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.startBlock(done)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, func(cc ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			c := cc.(*ast.CaseClause)
			var guards []ast.Node
			for _, e := range c.List {
				guards = append(guards, e)
			}
			return guards, c.Body, c.List == nil
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, func(cc ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			c := cc.(*ast.CaseClause)
			var guards []ast.Node
			for _, e := range c.List {
				guards = append(guards, e)
			}
			return guards, c.Body, c.List == nil
		})

	case *ast.SelectStmt:
		b.caseClauses(s.Body.List, label, func(cc ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			c := cc.(*ast.CommClause)
			var guards []ast.Node
			if c.Comm != nil {
				guards = append(guards, c.Comm)
			}
			return guards, c.Body, c.Comm == nil
		})

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.jump(f.brk)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.jump(f.cont)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			name := s.Label.Name
			li := b.labels[name]
			if li == nil {
				li = &labelInfo{}
				b.labels[name] = li
			}
			if li.block != nil {
				b.jump(li.block)
			} else if b.cur != nil {
				li.pending = append(li.pending, b.cur)
				b.cur = nil
			}
		case token.FALLTHROUGH:
			if n := len(b.breaks); n > 0 && b.breaks[n-1].fallthru != nil {
				b.jump(b.breaks[n-1].fallthru)
			} else {
				b.cur = nil
			}
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			b.jump(b.g.Exit)
		}

	default:
		// Assignments, declarations, defer, go, send, incdec, empty: plain
		// block members.
		b.add(s)
	}
}

// caseClauses lowers switch/type-switch/select bodies: every clause's
// guards evaluate in the dispatch block, each body is its own block with an
// implicit break, and a missing default adds a straight-through edge.
func (b *builder) caseClauses(clauses []ast.Stmt, label string, split func(ast.Stmt) (guards []ast.Node, body []ast.Stmt, isDefault bool)) {
	done := b.newBlock("switch.done")
	dispatch := b.cur
	bodies := make([]*Block, len(clauses))
	var bodyStmts [][]ast.Stmt
	hasDefault := false
	for i, cc := range clauses {
		guards, body, isDef := split(cc)
		if isDef {
			hasDefault = true
		}
		for _, g := range guards {
			b.add(g)
		}
		bodies[i] = b.newBlock(fmt.Sprintf("case.%d", i))
		bodyStmts = append(bodyStmts, body)
		if dispatch != nil {
			dispatch.Succs = append(dispatch.Succs, bodies[i])
		}
	}
	if !hasDefault && dispatch != nil {
		dispatch.Succs = append(dispatch.Succs, done)
	}
	for i := range clauses {
		var ft *Block
		if i+1 < len(clauses) {
			ft = bodies[i+1]
		}
		b.breaks = append(b.breaks, &frame{label: label, brk: done, fallthru: ft})
		b.startBlock(bodies[i])
		b.stmtList(bodyStmts[i], "")
		b.jump(done)
		b.breaks = b.breaks[:len(b.breaks)-1]
	}
	b.startBlock(done)
}

// findFrame resolves the target of a break (loop=false: loops, switches,
// selects) or continue (loop=true: loops only), optionally labelled.
func (b *builder) findFrame(label *ast.Ident, needLoop bool) *frame {
	for i := len(b.breaks) - 1; i >= 0; i-- {
		f := b.breaks[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// isPanic reports whether e is a call to the predeclared panic. Purely
// syntactic: a local function named panic would fool it, which no code in
// this repository (or any sane codebase) has.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Dump renders the graph structure for tests and debugging: one line per
// reachable block, "index/kind -> succ indices".
func (g *Graph) Dump() string {
	seen := map[*Block]bool{}
	var order []*Block
	var walk func(*Block)
	walk = func(blk *Block) {
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
	var sb strings.Builder
	for _, blk := range order {
		fmt.Fprintf(&sb, "%d/%s ->", blk.Index, blk.Kind)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " %d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
