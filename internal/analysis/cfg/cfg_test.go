package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// build parses src as a file, finds function name, and builds its graph.
func build(t *testing.T, src, name string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package x\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return New(fd.Body)
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// reach computes the blocks reachable from b.
func reach(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(blk *Block) {
		if seen[blk] {
			return
		}
		seen[blk] = true
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(b)
	return seen
}

// blockWith finds the reachable block containing a node whose source
// position line carries the given marker call (an identifier call f()).
func blockWith(t *testing.T, g *Graph, ident string) *Block {
	t.Helper()
	for blk := range reach(g.Entry) {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && id.Name == ident {
					found = true
				}
				return !found
			})
			if found {
				return blk
			}
		}
	}
	t.Fatalf("no reachable block mentions %q", ident)
	return nil
}

// canReach reports whether to is reachable from from.
func canReach(from, to *Block) bool { return reach(from)[to] }

func TestLinear(t *testing.T) {
	g := build(t, `func f() { a(); b() }`, "f")
	if !canReach(g.Entry, g.Exit) {
		t.Fatal("exit unreachable")
	}
	if blockWith(t, g, "a") != blockWith(t, g, "b") {
		t.Error("straight-line statements split across blocks")
	}
}

func TestIfElseJoins(t *testing.T) {
	g := build(t, `func f(x bool) { if x { a() } else { b() }; c() }`, "f")
	ba, bb, bc := blockWith(t, g, "a"), blockWith(t, g, "b"), blockWith(t, g, "c")
	if ba == bb {
		t.Error("then and else share a block")
	}
	if !canReach(ba, bc) || !canReach(bb, bc) {
		t.Error("branches do not rejoin")
	}
	if canReach(ba, bb) || canReach(bb, ba) {
		t.Error("then and else reach each other")
	}
}

func TestEarlyReturnSkipsTail(t *testing.T) {
	g := build(t, `func f(x bool) { if x { a(); return }; b() }`, "f")
	ba, bb := blockWith(t, g, "a"), blockWith(t, g, "b")
	if canReach(ba, bb) {
		t.Error("code after return reachable from returning branch")
	}
	if !canReach(ba, g.Exit) || !canReach(bb, g.Exit) {
		t.Error("both paths must reach exit")
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := build(t, `func f(n int) { for i := 0; i < n; i++ { a() }; b() }`, "f")
	ba := blockWith(t, g, "a")
	if !canReach(ba, ba) {
		t.Error("loop body cannot reach itself (missing back edge)")
	}
	if !canReach(ba, blockWith(t, g, "b")) {
		t.Error("loop body cannot exit the loop")
	}
}

func TestRangeLoop(t *testing.T) {
	g := build(t, `func f(xs []int) { for range xs { a() }; b() }`, "f")
	ba := blockWith(t, g, "a")
	if !canReach(ba, ba) {
		t.Error("range body missing back edge")
	}
	if !canReach(g.Entry, blockWith(t, g, "b")) {
		t.Error("range done block unreachable")
	}
}

func TestBreakContinue(t *testing.T) {
	g := build(t, `func f(n int) {
		for i := 0; i < n; i++ {
			if i == 1 { continue }
			if i == 2 { break }
			a()
		}
		b()
	}`, "f")
	ba, bb := blockWith(t, g, "a"), blockWith(t, g, "b")
	if !canReach(ba, bb) {
		t.Error("loop cannot reach after-loop code")
	}
	if !canReach(ba, ba) {
		t.Error("continue severed the back edge")
	}
}

func TestLabeledBreak(t *testing.T) {
	g := build(t, `func f(n int) {
	outer:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j == 2 { break outer }
				a()
			}
		}
		b()
	}`, "f")
	if !canReach(blockWith(t, g, "a"), blockWith(t, g, "b")) {
		t.Error("labeled break does not reach after-loop code")
	}
}

func TestSwitchCasesAreExclusive(t *testing.T) {
	g := build(t, `func f(x int) {
		switch x {
		case 1:
			a()
		case 2:
			b()
		}
		c()
	}`, "f")
	ba, bb, bc := blockWith(t, g, "a"), blockWith(t, g, "b"), blockWith(t, g, "c")
	if canReach(ba, bb) {
		t.Error("case bodies flow into each other without fallthrough")
	}
	if !canReach(ba, bc) || !canReach(bb, bc) {
		t.Error("cases do not rejoin")
	}
	if !canReach(g.Entry, bc) {
		t.Error("no-default switch must have a skip edge")
	}
}

func TestFallthrough(t *testing.T) {
	g := build(t, `func f(x int) {
		switch x {
		case 1:
			a()
			fallthrough
		case 2:
			b()
		}
	}`, "f")
	if !canReach(blockWith(t, g, "a"), blockWith(t, g, "b")) {
		t.Error("fallthrough edge missing")
	}
}

func TestPanicEdge(t *testing.T) {
	g := build(t, `func f(x bool) { if x { panic("boom") }; a() }`, "f")
	// The block containing panic must edge to exit, not to a().
	ba := blockWith(t, g, "panic")
	if canReach(ba, blockWith(t, g, "a")) {
		t.Error("code after panic reachable from panicking block")
	}
	if !canReach(ba, g.Exit) {
		t.Error("panic does not reach exit")
	}
}

func TestGotoBackward(t *testing.T) {
	g := build(t, `func f(x bool) {
	loop:
		a()
		if x { goto loop }
		b()
	}`, "f")
	ba := blockWith(t, g, "a")
	if !canReach(ba, ba) {
		t.Error("backward goto missing cycle")
	}
	if !canReach(ba, blockWith(t, g, "b")) {
		t.Error("fallthrough path severed")
	}
}

func TestGotoForward(t *testing.T) {
	g := build(t, `func f(x bool) {
		if x { goto done }
		a()
	done:
		b()
	}`, "f")
	bb := blockWith(t, g, "b")
	if !canReach(g.Entry, bb) {
		t.Error("forward goto target unreachable")
	}
	if !canReach(blockWith(t, g, "a"), bb) {
		t.Error("fall-through into label severed")
	}
}

func TestSelect(t *testing.T) {
	g := build(t, `func f(c, d chan int) {
		select {
		case <-c:
			a()
		case <-d:
			b()
		}
		e()
	}`, "f")
	ba, bb := blockWith(t, g, "a"), blockWith(t, g, "b")
	if canReach(ba, bb) || canReach(bb, ba) {
		t.Error("select clauses reach each other")
	}
	be := blockWith(t, g, "e")
	if !canReach(ba, be) || !canReach(bb, be) {
		t.Error("select clauses do not rejoin")
	}
}

func TestDeferStaysInBlock(t *testing.T) {
	g := build(t, `func f() { defer a(); b() }`, "f")
	found := false
	for blk := range reach(g.Entry) {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Error("defer statement dropped from graph")
	}
}

func TestDeadCodeAfterReturn(t *testing.T) {
	g := build(t, `func f() { return; a() }`, "f") //nolint (deliberate dead code)
	for blk := range reach(g.Entry) {
		for _, n := range blk.Nodes {
			bad := false
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && id.Name == "a" {
					bad = true
				}
				return !bad
			})
			if bad {
				t.Error("statement after return is reachable")
			}
		}
	}
}

func TestDumpStable(t *testing.T) {
	g := build(t, `func f(x bool) { if x { a() }; b() }`, "f")
	d := g.Dump()
	if !strings.Contains(d, "entry") || !strings.Contains(d, "exit") {
		t.Errorf("dump missing entry/exit:\n%s", d)
	}
	if d != g.Dump() {
		t.Error("dump not deterministic")
	}
}

// Dump renders the graph structure for the tests: one line per
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
