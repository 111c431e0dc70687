// Package obscheck enforces the observability layer's handle-caching rule
// outside internal/obs itself: instrument handles are resolved once, not in
// loops. Calling Registry.Counter/Gauge/Histogram/Timer inside a loop body
// re-does the map lookup per iteration, exactly what the handle-caching
// design exists to avoid. End-of-run publication loops carry //lint:allow.
//
// Nil-safe access to the sinks needs no analyzer: obs.Obs keeps its
// registry and tracer unexported behind obs.New, so the accessors are the
// only way in.
package obscheck

import (
	"go/ast"
	"go/types"
	"strings"

	"smartbadge/internal/analysis"
)

// Analyzer is the obscheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "obscheck",
	Doc:  "hoist obs instrument construction out of loops",
	Run:  run,
}

// constructors are the Registry methods that resolve (and lazily register)
// an instrument handle.
var constructors = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Timer": true,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/obs") {
		return nil
	}
	for _, f := range pass.Files {
		checkLoopConstruction(pass, f)
	}
	return nil
}

// checkLoopConstruction flags instrument-handle resolution inside for/range
// bodies.
func checkLoopConstruction(pass *analysis.Pass, f *ast.File) {
	var inspectBody func(n ast.Node) bool
	inspectBody = func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !constructors[sel.Sel.Name] {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/obs") {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			pass.Reportf(call.Pos(),
				"obs.Registry.%s called inside a loop re-resolves the handle every iteration; hoist the lookup out of the loop",
				sel.Sel.Name)
			return true
		})
		return true
	}
	ast.Inspect(f, inspectBody)
}
