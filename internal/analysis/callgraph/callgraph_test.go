package callgraph_test

import (
	"sort"
	"testing"

	"smartbadge/internal/analysis"
	"smartbadge/internal/analysis/callgraph"
)

const pkgPath = "testdata/graphpkg"

func buildGraph(t *testing.T) *callgraph.Graph {
	t.Helper()
	pkg, err := analysis.LoadFiles("testdata/graphpkg", pkgPath)
	if err != nil {
		t.Fatalf("loading golden package: %v", err)
	}
	return callgraph.Build([]*callgraph.Unit{{
		Fset: pkg.Fset, Files: pkg.Syntax, Pkg: pkg.Types, Info: pkg.TypesInfo,
	}})
}

func node(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	n := g.Node(pkgPath + "." + name)
	if n == nil {
		t.Fatalf("no node for %s", name)
	}
	return n
}

func TestEdgesAndKinds(t *testing.T) {
	g := buildGraph(t)

	caller := node(t, g, "Caller")
	if len(caller.Edges) != 1 || caller.Edges[0].Callee.Key != pkgPath+".Leaf" {
		t.Fatalf("Caller edges = %+v, want one edge to Leaf", caller.Edges)
	}

	deferred := node(t, g, "Deferred")
	if len(deferred.Edges) != 1 || deferred.Edges[0].Callee.Key != pkgPath+".Leaf" {
		t.Errorf("Deferred edges = %+v, want one edge to Leaf", deferred.Edges)
	}

	generic := node(t, g, "CallsGeneric")
	if len(generic.Edges) != 1 || generic.Edges[0].Callee.Key != pkgPath+".Generic" {
		t.Errorf("CallsGeneric edges = %+v, want one edge to Generic", generic.Edges)
	}
}

func TestGoroutineLiteral(t *testing.T) {
	g := buildGraph(t)
	spawner := node(t, g, "Spawner")

	var lit *callgraph.Edge
	for i := range spawner.Edges {
		if spawner.Edges[i].Callee.Fn == nil {
			lit = &spawner.Edges[i]
			break
		}
	}
	if lit == nil {
		t.Fatal("Spawner has no function-literal edge")
	}
	if lit.Callee.Key != pkgPath+".Spawner$lit1" {
		t.Errorf("literal key = %q, want %q", lit.Callee.Key, pkgPath+".Spawner$lit1")
	}
}

func TestMayBlock(t *testing.T) {
	g := buildGraph(t)
	for name, want := range map[string]bool{
		"Leaf":       false,
		"Caller":     false,
		"ChanRecv":   true, // direct channel receive
		"Transitive": true, // only through ChanRecv
		"Sleeper":    true, // time.Sleep is on the blocking list
		"Spawner":    true, // WaitGroup.Wait is on the blocking list
		"Deferred":   false,
	} {
		if got := g.MayBlock(node(t, g, name)); got != want {
			t.Errorf("MayBlock(%s) = %v, want %v", name, got, want)
		}
	}
	if g.MayBlock(nil) {
		t.Error("MayBlock(nil) = true")
	}
}

func TestSignatures(t *testing.T) {
	g := buildGraph(t)
	if !node(t, g, "WithCtx").HasCtxParam {
		t.Error("WithCtx.HasCtxParam = false")
	}
	if node(t, g, "Leaf").HasCtxParam {
		t.Error("Leaf.HasCtxParam = true")
	}
}

func TestFuncsInSorted(t *testing.T) {
	g := buildGraph(t)
	nodes := g.FuncsIn(pkgPath)
	if len(nodes) == 0 {
		t.Fatal("FuncsIn returned nothing")
	}
	keys := make([]string, len(nodes))
	for i, n := range nodes {
		keys[i] = n.Key
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("FuncsIn keys not sorted: %v", keys)
	}
}
