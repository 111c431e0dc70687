package lockcheck_test

import (
	"testing"

	"smartbadge/internal/analysis/analysistest"
	"smartbadge/internal/analysis/lockcheck"
)

func TestCriticalSections(t *testing.T) {
	analysistest.Run(t, "testdata/locked", lockcheck.Analyzer)
}
