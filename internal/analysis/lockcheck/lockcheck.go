// Package lockcheck enforces the serving stack's lock discipline: no
// blocking operation while a sync.Mutex/RWMutex is held. Critical sections
// in this codebase are pointer swaps and counter bumps; a channel op,
// select, WaitGroup.Wait, network call, time.Sleep, or a call that the call
// graph shows can transitively block (e.g. fleet.RunCtx, whose shard pool
// parks on channels) turns one slow request into a convoy for every handler
// sharing the lock — the admission-control design (bounded queue outside
// any lock) exists precisely to avoid that.
//
// The lock tracking is a linear, per-block scan: Lock()/Unlock() toggle a
// held set keyed by the receiver expression, defer Unlock() holds to
// function end, and branch bodies are scanned with a copy of the state
// (conservative: a branch cannot release the lock for the code after it).
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"smartbadge/internal/analysis"
	"smartbadge/internal/analysis/callgraph"
)

// Analyzer is the lockcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "forbid blocking calls while a mutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanBlock(pass, fd.Body.List, lockState{})
		}
	}
	return nil
}

// lockState maps a mutex receiver expression (rendered as source) to the
// position where it was locked.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// anyHeld returns an arbitrary-but-deterministic held mutex for messages:
// the lexically first key.
func (s lockState) anyHeld() string {
	best := ""
	for k := range s {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// scanBlock walks stmts linearly, maintaining the held-lock state.
func scanBlock(pass *analysis.Pass, stmts []ast.Stmt, held lockState) {
	for _, stmt := range stmts {
		scanStmt(pass, stmt, held)
	}
}

func scanStmt(pass *analysis.Pass, stmt ast.Stmt, held lockState) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, op, ok := mutexOp(pass, call); ok {
				if op == "Lock" || op == "RLock" {
					held[recv] = call.Pos()
				} else {
					delete(held, recv)
				}
				return
			}
		}
		checkExpr(pass, s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() holds the lock to function end: the held entry
		// simply stays. Other deferred calls run at exit, outside this
		// linear scan's scope.
	case *ast.GoStmt:
		// A new goroutine holds nothing; scan spawned literals fresh.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			scanBlock(pass, lit.Body.List, lockState{})
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			checkExpr(pass, rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkExpr(pass, r, held)
		}
	case *ast.SendStmt:
		if m := held.anyHeld(); m != "" {
			pass.Reportf(s.Pos(), "channel send while %s is held; release the lock before blocking", m)
		}
		checkExpr(pass, s.Value, held)
	case *ast.SelectStmt:
		if m := held.anyHeld(); m != "" {
			pass.Reportf(s.Pos(), "select while %s is held; release the lock before blocking", m)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				scanBlock(pass, cc.Body, held.clone())
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, held)
		}
		checkExpr(pass, s.Cond, held)
		scanBlock(pass, s.Body.List, held.clone())
		if s.Else != nil {
			scanStmt(pass, s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond, held)
		}
		scanBlock(pass, s.Body.List, held.clone())
	case *ast.RangeStmt:
		if tv, ok := pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				if m := held.anyHeld(); m != "" {
					pass.Reportf(s.Pos(), "range over a channel while %s is held; release the lock before blocking", m)
				}
			}
		}
		checkExpr(pass, s.X, held)
		scanBlock(pass, s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, held)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanBlock(pass, cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanBlock(pass, cc.Body, held.clone())
			}
		}
	case *ast.BlockStmt:
		scanBlock(pass, s.List, held)
	case *ast.LabeledStmt:
		scanStmt(pass, s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkExpr(pass, v, held)
					}
				}
			}
		}
	}
}

// checkExpr reports blocking operations inside expr while locks are held.
// Function literals are skipped: they execute later, without the lock.
func checkExpr(pass *analysis.Pass, expr ast.Expr, held lockState) {
	if len(held) == 0 {
		return
	}
	m := held.anyHeld()
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			scanBlock(pass, n.Body.List, lockState{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while %s is held; release the lock before blocking", m)
			}
		case *ast.CallExpr:
			fn := callgraph.Callee(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if _, _, isMutex := mutexOpFn(fn); isMutex {
				return true // nested lock/unlock of another mutex: out of scope
			}
			if pass.Graph.MayBlock(pass.Graph.NodeOf(fn)) {
				pass.Reportf(n.Pos(),
					"%s can block (channel op, network I/O, or a blocking callee) while %s is held; release the lock first",
					fn.Name(), m)
			}
		}
		return true
	})
}

// mutexOp recognises a sync.Mutex / sync.RWMutex Lock/Unlock family call
// and returns the receiver rendered as source plus the operation name.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (recv, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", "", false
	}
	if _, op, ok = mutexOpFn(fn); !ok {
		return "", "", false
	}
	return types.ExprString(sel.X), op, true
}

// mutexOpFn reports whether fn is one of sync.Mutex/RWMutex's lock-family
// methods.
func mutexOpFn(fn *types.Func) (typ, op string, ok bool) {
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	name := named.Obj().Name()
	if name != "Mutex" && name != "RWMutex" {
		return "", "", false
	}
	// TryLock acquires on success but cannot block; treat like Lock for
	// held-state purposes.
	op = fn.Name()
	if op == "TryLock" {
		op = "Lock"
	}
	if op == "TryRLock" {
		op = "RLock"
	}
	return name, op, true
}
