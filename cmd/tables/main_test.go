package main

import (
	"context"
	"testing"
)

func TestRunLightExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "pareto"} {
		if err := run(context.Background(), exp, 1); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunSimulationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation tables are slow")
	}
	for _, exp := range []string{"table3", "table4", "table5", "fig7", "breakdown"} {
		if err := run(context.Background(), exp, 1); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "table99", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}
