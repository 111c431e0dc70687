// Package ctxflow enforces the cancellation contract threaded through the
// serving stack: deadlines enter at the boundary (cmd binaries, examples,
// internal/server) and must flow as a context.Context all the way down to
// the shard loops that poll it between badges. Three rules:
//
//  1. Below the boundary, context.Background and context.TODO are
//     banned: a fresh root context severs the caller's deadline. There is
//     no structural exemption; each entry point takes the caller's ctx,
//     and a site with no caller context to take says why in a
//     //lint:allow ctxflow directive.
//  2. A function that receives a context must propagate it: calling F when
//     the same package declares a context-capable FCtx drops the caller's
//     deadline on the floor and is flagged.
//  3. In the concurrency-bearing packages (internal/parallel,
//     internal/fleet, internal/server), a loop that can block — a channel
//     operation, or a call that transitively blocks or is context-capable —
//     inside a context-bearing function must observe the context: call
//     ctx.Err(), select on ctx.Done(), or poll a done-channel variable
//     derived from ctx.Done(). This is the invariant that makes a 200 ms
//     deadline land between badges instead of after the whole batch.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"smartbadge/internal/analysis"
	"smartbadge/internal/analysis/callgraph"
)

// Analyzer is the ctxflow analysis.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "require context propagation below the serving boundary and ctx-observing loops in concurrency-bearing packages",
	Run:  run,
}

// LoopPkgs names the packages (by final import-path element) whose blocking
// loops must observe the context: the fan-out layer, the fleet shard loops,
// the serving daemon, the retrying client (its backoff loop sleeps between
// attempts and must honour the caller's deadline mid-wait), and the
// netfault chaos proxy (its accept loop must die with the context or a
// cancelled smoke run leaks a listener).
var LoopPkgs = map[string]bool{
	"parallel": true, "fleet": true, "server": true, "client": true,
	"netfault": true,
}

// BelowBoundary reports whether pkgPath sits below the context entry
// boundary. cmd binaries and examples own their process lifetime and
// internal/server derives contexts from requests; everything else receives
// its context from above.
func BelowBoundary(pkgPath string) bool {
	if strings.HasPrefix(pkgPath, "cmd/") || strings.Contains(pkgPath, "/cmd/") {
		return false
	}
	if strings.HasPrefix(pkgPath, "examples/") || strings.Contains(pkgPath, "/examples/") {
		return false
	}
	last := pkgPath[strings.LastIndex(pkgPath, "/")+1:]
	return last != "server"
}

func run(pass *analysis.Pass) error {
	below := BelowBoundary(pass.Pkg.Path())
	last := pass.Pkg.Path()[strings.LastIndex(pass.Pkg.Path(), "/")+1:]
	loopPkg := LoopPkgs[last]
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, declHasCtxParam(pass, fd), below, loopPkg, nil)
		}
	}
	return nil
}

// checkFunc applies the three rules to one function body, recursing into
// function literals with the enclosing context availability and the
// enclosing done-channel variables (a literal capturing `done := ctx.Done()`
// observes the context through it). banRoot is whether rule 1 applies here
// (below the boundary).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, hasCtx, banRoot, loopPkg bool, outerDone map[types.Object]bool) {
	doneVars := collectDoneVars(pass, body)
	for obj := range outerDone {
		doneVars[obj] = true
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litCtx := hasCtx || sigHasCtx(pass, n)
			checkFunc(pass, n.Body, litCtx, banRoot, loopPkg, doneVars)
			return false
		case *ast.CallExpr:
			checkCall(pass, n, hasCtx)
		case *ast.ForStmt:
			if loopPkg && hasCtx && loopCanBlock(pass, n.Body) {
				checkObserved(pass, n, n.Cond, n.Body, doneVars)
			}
		case *ast.RangeStmt:
			if loopPkg && hasCtx {
				// Ranging over a channel blocks in the range clause itself.
				overChan := false
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					_, overChan = tv.Type.Underlying().(*types.Chan)
				}
				if overChan || loopCanBlock(pass, n.Body) {
					checkObserved(pass, n, nil, n.Body, doneVars)
				}
			}
		case *ast.SelectorExpr:
			if !banRoot {
				return true
			}
			if fn := selectedFunc(pass, n); fn != nil && isRootCtx(fn) {
				pass.Reportf(n.Pos(),
					"context.%s below the serving boundary severs the caller's deadline; accept a ctx parameter",
					fn.Name())
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkCall flags rule 2: a context-holding function calling F when the
// same package declares a context-capable FCtx sibling.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, hasCtx bool) {
	if !hasCtx {
		return
	}
	fn := callgraph.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || hasCtxParamFn(fn) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // sibling lookup is package-scope only
	}
	sib, ok := fn.Pkg().Scope().Lookup(fn.Name() + "Ctx").(*types.Func)
	if !ok || !hasCtxParamFn(sib) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s drops the context this function already holds; call %s and pass ctx",
		fn.Name(), sib.Name())
}

// checkObserved flags rule 3 on a loop already known blocking-capable.
func checkObserved(pass *analysis.Pass, loop ast.Stmt, cond ast.Expr, body *ast.BlockStmt, doneVars map[types.Object]bool) {
	if cond != nil && observesCtx(pass, cond, doneVars) {
		return
	}
	if observesCtx(pass, body, doneVars) {
		return
	}
	pass.Reportf(loop.Pos(),
		"this loop can block but never observes the context; poll ctx.Err() or select on ctx.Done() between iterations so cancellation lands mid-loop")
}

// loopCanBlock reports whether the loop body can block an iteration: a
// direct channel operation, or a statically resolved call whose callee is
// context-capable (long-running engine work by convention) or may block per
// the call graph. Function literals declared in the body are conservatively
// included (they are typically invoked by the calls around them).
func loopCanBlock(pass *analysis.Pass, body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		if blocking {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			blocking = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blocking = true
			}
		case *ast.CallExpr:
			fn := callgraph.Callee(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if hasCtxParamFn(fn) || pass.Graph.MayBlock(pass.Graph.NodeOf(fn)) {
				blocking = true
			}
		}
		return true
	})
	return blocking
}

// observesCtx reports whether n contains a ctx.Err()/ctx.Done() call on a
// context-typed value or a reference to a done-channel variable derived
// from ctx.Done().
func observesCtx(pass *analysis.Pass, n ast.Node, doneVars map[types.Object]bool) bool {
	seen := false
	ast.Inspect(n, func(m ast.Node) bool {
		if seen {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if isCtxMethodCall(pass, m, "Err") || isCtxMethodCall(pass, m, "Done") {
				seen = true
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[m]; obj != nil && doneVars[obj] {
				seen = true
			}
		}
		return true
	})
	return seen
}

// collectDoneVars finds the variables assigned from ctx.Done() in body, so
// `done := ctx.Done(); ...; case <-done:` counts as observing the context.
func collectDoneVars(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isCtxMethodCall(pass, call, "Done") {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					vars[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					vars[obj] = true
				}
			}
		}
		return true
	})
	return vars
}

// isCtxMethodCall reports whether call is <context-typed expr>.<name>().
func isCtxMethodCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && callgraph.IsContextType(tv.Type)
}

// selectedFunc resolves a selector to the function it names, or nil.
func selectedFunc(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Func {
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn
}

// isRootCtx reports context.Background / context.TODO.
func isRootCtx(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// declHasCtxParam reports a context.Context parameter on fd.
func declHasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return ok && hasCtxParamFn(fn)
}

func sigHasCtx(pass *analysis.Pass, lit *ast.FuncLit) bool {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if callgraph.IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func hasCtxParamFn(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if callgraph.IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
