// Package callgraph builds a conservative static call graph over the
// type-checked ASTs the analysis framework already loads, and answers the
// reachability question the concurrency analyzers share: "can this function
// block?".
//
// The graph is deliberately conservative in both directions and the
// analyzers built on it are written to stay quiet rather than clever:
//
//   - Only statically resolvable calls produce edges: direct calls through
//     an identifier or selector (including generic instantiations). Calls
//     through function-typed values, interface methods and reflection
//     produce no edge, so reachability is an under-approximation there.
//   - Function literals are nodes of their own, with an edge from the
//     enclosing function — an over-approximation that treats every literal
//     as invoked (whether called, deferred or started with go), which is
//     what a "may block" analysis wants.
//   - Functions whose bodies are not in the loaded source set (dependencies
//     type-checked from export data) become body-less nodes: their
//     signatures are known, their behaviour is not, except for a small
//     explicit list of known-blocking standard-library entry points
//     (net, net/http, time.Sleep, sync.WaitGroup.Wait).
//
// Nodes are keyed by the types.Func full name (e.g.
// "smartbadge/internal/fleet.RunCtx" or "(*sync.WaitGroup).Wait"), which is
// stable across the separate type-check universes the loader creates for
// each package — package A checked from source and package B's export-data
// view of A yield distinct types.Func objects with identical full names, so
// cross-package edges unify by key.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Unit is one loaded package's worth of type-checked syntax. It mirrors
// the framework's Package without importing it (the framework imports this
// package, not the other way round).
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// An Edge is one resolved call site.
type Edge struct {
	Callee *Node
	Pos    token.Pos
}

// A Node is one function: a declared function or method, a function
// literal, or a body-less import (export-data dependency).
type Node struct {
	// Key is the canonical name: types.Func.FullName for declared
	// functions, "<parent>$litN" for function literals.
	Key string
	// Fn is the type-checker object; nil for function literals.
	Fn *types.Func
	// PkgPath is the declaring package's import path ("" when unknown).
	PkgPath string
	// Unit, File and Body locate the source; all nil for body-less nodes.
	Unit *Unit
	File *ast.File
	Body *ast.BlockStmt
	// Pos is the declaration (or literal) position; NoPos when body-less.
	Pos token.Pos
	// Edges are the node's resolved call sites in source order.
	Edges []Edge

	// HasCtxParam reports a context.Context anywhere in the signature.
	HasCtxParam bool
	// ChanOps reports a channel operation directly in the body: send,
	// receive, close, select, or range over a channel.
	ChanOps bool
	// BlockingStd reports a direct call to a known-blocking stdlib entry
	// point (net, net/http, time.Sleep, sync.WaitGroup.Wait).
	BlockingStd bool

	blockMemo memoState
}

type memoState uint8

const (
	memoUnknown memoState = iota
	memoInProgress
	memoYes
	memoNo
)

// A Graph is the assembled call graph.
type Graph struct {
	nodes map[string]*Node
}

// Build assembles the graph for the given units. Units type-checked against
// each other (shared or source-local importers) unify by object; everything
// else unifies by full-name key.
func Build(units []*Unit) *Graph {
	g := &Graph{nodes: make(map[string]*Node)}
	// Phase 1: a node per declared function, so cross-package edges bind to
	// the body-bearing node regardless of unit processing order.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.ensure(fn)
				n.Unit, n.File, n.Body, n.Pos = u, f, fd.Body, fd.Pos()
			}
		}
	}
	// Phase 2: walk every body, recording edges and behaviour flags.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.walkBody(g.nodes[fullName(fn)], fd.Body)
			}
		}
	}
	return g
}

// fullName is the node key for a declared function.
func fullName(fn *types.Func) string { return fn.FullName() }

// ensure returns the node for fn, creating a body-less one if needed.
func (g *Graph) ensure(fn *types.Func) *Node {
	key := fullName(fn)
	if n, ok := g.nodes[key]; ok {
		return n
	}
	n := &Node{Key: key, Fn: fn, HasCtxParam: hasCtxParam(fn)}
	if fn.Pkg() != nil {
		n.PkgPath = fn.Pkg().Path()
	}
	n.BlockingStd = isBlockingStd(fn)
	g.nodes[key] = n
	return n
}

// walkBody records body's call sites and behaviour flags on owner. Function
// literals become child nodes walked with their own flag scope, so a
// literal's channel ops do not mark the enclosing function.
func (g *Graph) walkBody(owner *Node, body *ast.BlockStmt) {
	u := owner.Unit
	lits := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits++
			child := &Node{
				Key:     fmt.Sprintf("%s$lit%d", owner.Key, lits),
				PkgPath: owner.PkgPath,
				Unit:    u, File: owner.File, Body: n.Body, Pos: n.Pos(),
			}
			if tv, ok := u.Info.Types[n]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					child.HasCtxParam = sigHasCtxParam(sig)
				}
			}
			g.nodes[child.Key] = child
			owner.Edges = append(owner.Edges, Edge{Callee: child, Pos: n.Pos()})
			g.walkBody(child, n.Body)
			return false // children handled by the recursive walkBody
		case *ast.SendStmt, *ast.SelectStmt:
			owner.ChanOps = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				owner.ChanOps = true
			}
		case *ast.RangeStmt:
			if tv, ok := u.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					owner.ChanOps = true
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := u.Info.Uses[id].(*types.Builtin); isBuiltin {
					owner.ChanOps = true
				}
			}
			if fn := Callee(u.Info, n); fn != nil {
				callee := g.ensure(fn)
				owner.Edges = append(owner.Edges, Edge{Callee: callee, Pos: n.Pos()})
				if isBlockingStd(fn) {
					owner.BlockingStd = true
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// Callee statically resolves a call expression to the *types.Func it
// invokes, or nil when the target is dynamic (function value, interface
// method dispatch is still returned — the interface method object — since
// its signature is meaningful even without a body).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeOfExpr(info, f.X)
	case *ast.IndexListExpr: // generic instantiation f[T1, T2](...)
		return calleeOfExpr(info, f.X)
	}
	return nil
}

func calleeOfExpr(info *types.Info, e ast.Expr) *types.Func {
	switch f := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Node returns the node with the given key, or nil.
func (g *Graph) Node(key string) *Node { return g.nodes[key] }

// NodeOf returns the node for a declared function, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fullName(fn)]
}

// FuncsIn returns the nodes declared in the package with the given import
// path (function literals included), sorted by key for deterministic
// iteration.
func (g *Graph) FuncsIn(pkgPath string) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.PkgPath == pkgPath {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MayBlock reports whether n can block waiting on another goroutine or on
// I/O: a channel operation, select, a known-blocking stdlib call, or —
// transitively — a call to a function that may block. Mutex operations are
// deliberately not counted (they guard short critical sections everywhere
// in this codebase; counting them would flag every synchronised counter
// bump). Results are memoized; cycles resolve to "does not block" unless
// something on the cycle independently blocks.
func (g *Graph) MayBlock(n *Node) bool {
	if n == nil {
		return false
	}
	switch n.blockMemo {
	case memoYes:
		return true
	case memoNo, memoInProgress:
		return n.blockMemo == memoYes
	}
	n.blockMemo = memoInProgress
	blocked := n.ChanOps || n.BlockingStd
	if !blocked {
		for _, e := range n.Edges {
			if g.MayBlock(e.Callee) {
				blocked = true
				break
			}
		}
	}
	if blocked {
		n.blockMemo = memoYes
	} else {
		n.blockMemo = memoNo
	}
	return blocked
}

// hasCtxParam reports a context.Context parameter anywhere in fn's
// signature.
func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sigHasCtxParam(sig)
}

func sigHasCtxParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if IsContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isBlockingStd reports the explicit known-blocking stdlib entry points:
// anything in net or net/http, time.Sleep, and sync.WaitGroup.Wait. The
// list is intentionally small — stdlib bodies are not loaded, so anything
// not listed is assumed non-blocking rather than guessed at.
func isBlockingStd(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "net", "net/http":
		return true
	case "time":
		return fn.Name() == "Sleep"
	case "sync":
		if fn.Name() != "Wait" {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return false
		}
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		return ok && named.Obj().Name() == "WaitGroup"
	}
	return false
}
