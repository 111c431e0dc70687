// Command tables regenerates the paper's evaluation artifacts: Tables 1-5
// and Figures 3-6, 9 and 10.
//
//	tables -exp table3          # one experiment
//	tables -exp all             # everything (EXPERIMENTS.md source data)
//	tables -exp table5 -seed 3  # different workload realisation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"smartbadge/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: table1..table5, fig3..fig6, fig9, fig10, all")
		seed = flag.Uint64("seed", 1, "workload generation seed")
	)
	flag.Parse()

	if err := run(context.Background(), strings.ToLower(*exp), *seed); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, exp string, seed uint64) error {
	all := exp == "all"
	ran := false
	out := func(s string) {
		fmt.Println(s)
		ran = true
	}
	if all || exp == "table1" {
		out(experiments.FormatTable1(experiments.Table1()))
	}
	if all || exp == "fig3" {
		out(experiments.FormatFig3(experiments.Fig3()))
	}
	if all || exp == "fig4" {
		out(experiments.FormatPerfEnergy("Figure 4: MP3 performance and energy vs. frequency", experiments.Fig4()))
	}
	if all || exp == "fig5" {
		out(experiments.FormatPerfEnergy("Figure 5: MPEG performance and energy vs. frequency", experiments.Fig5()))
	}
	if all || exp == "fig6" {
		r, err := experiments.Fig6(seed)
		if err != nil {
			return err
		}
		out(experiments.FormatFig6(r))
	}
	if all || exp == "fig7" {
		r, err := experiments.Fig7(seed)
		if err != nil {
			return err
		}
		out(experiments.FormatFig7(r))
	}
	if all || exp == "fig8" {
		out(experiments.FormatFig8(experiments.Fig8()))
	}
	if all || exp == "fig9" {
		out(experiments.FormatFig9(experiments.Fig9()))
	}
	if all || exp == "fig10" {
		r, err := experiments.Fig10(seed)
		if err != nil {
			return err
		}
		out(experiments.FormatFig10(r))
	}
	if all || exp == "table2" {
		out(experiments.FormatTable2(experiments.Table2()))
	}
	if all || exp == "table3" {
		rows, err := experiments.Table3(seed)
		if err != nil {
			return err
		}
		out(experiments.FormatDVSTable("Table 3: MP3 audio DVS", rows))
	}
	if all || exp == "table4" {
		rows, err := experiments.Table4(seed)
		if err != nil {
			return err
		}
		out(experiments.FormatDVSTable("Table 4: MPEG video DVS", rows))
	}
	if all || exp == "table5" {
		rows, err := experiments.Table5(seed)
		if err != nil {
			return err
		}
		out(experiments.FormatTable5(rows))
	}
	if all || exp == "pareto" {
		points, err := experiments.ParetoFrontier(ctx, seed, 0)
		if err != nil {
			return err
		}
		out(experiments.FormatPareto(points))
	}
	if all || exp == "breakdown" {
		rows, names, err := experiments.Breakdown(seed)
		if err != nil {
			return err
		}
		out(experiments.FormatBreakdown(rows, names))
	}
	if exp == "replicated" { // too slow for "all"
		factor, err := experiments.Table5FactorReplicated(ctx, seed, 5)
		if err != nil {
			return err
		}
		saving, err := experiments.Table3SavingReplicated(ctx, seed, 5)
		if err != nil {
			return err
		}
		excess, err := experiments.ChangePointExcessReplicated(ctx, seed, 5)
		if err != nil {
			return err
		}
		out(fmt.Sprintf("Replicated headline claims (5 workload realisations each):\n"+
			"  combined DVS+DPM saving factor:      %s\n"+
			"  change-point energy saving vs max:   %s\n"+
			"  change-point energy excess vs ideal: %s\n",
			factor, saving, excess))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
