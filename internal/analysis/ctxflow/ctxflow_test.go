package ctxflow_test

import (
	"testing"

	"smartbadge/internal/analysis/analysistest"
	"smartbadge/internal/analysis/ctxflow"
)

func TestLoopPackageBelowBoundary(t *testing.T) {
	analysistest.Run(t, "testdata/parallel", ctxflow.Analyzer)
}

func TestBoundaryPackage(t *testing.T) {
	analysistest.Run(t, "testdata/server", ctxflow.Analyzer)
}

// TestBoundary pins the boundary definition: cmd binaries and the transport
// layer may mint root contexts; the engine packages may not.
func TestBoundary(t *testing.T) {
	for _, above := range []string{"smartbadge/cmd/dvsimd", "cmd/dvsimd", "smartbadge/internal/server"} {
		if ctxflow.BelowBoundary(above) {
			t.Errorf("BelowBoundary(%q) = true, want false (entry boundary)", above)
		}
	}
	for _, below := range []string{"smartbadge/internal/fleet", "smartbadge/internal/parallel", "smartbadge/internal/experiments"} {
		if !ctxflow.BelowBoundary(below) {
			t.Errorf("BelowBoundary(%q) = false, want true", below)
		}
	}
	for _, pkg := range []string{"parallel", "fleet", "server", "client", "netfault"} {
		if !ctxflow.LoopPkgs[pkg] {
			t.Errorf("package %q missing from LoopPkgs", pkg)
		}
	}
}
