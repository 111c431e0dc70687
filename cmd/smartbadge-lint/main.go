// Command smartbadge-lint is the project's static-analysis gate: it runs
// the determinism, unit-safety, context-flow and lock-discipline analyzers
// (see internal/analysis and DESIGN.md §10 "Invariants enforced by static
// analysis") over the given packages and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/smartbadge-lint [-json] ./...
//
// With -json each finding is emitted as one JSON object per line
// ({"analyzer","file","line","message"}) for CI annotation and artifact
// upload; the human-readable form goes to stdout otherwise.
//
// Findings can be suppressed, with a mandatory recorded reason, by placing
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it. An allow that
// suppresses nothing is itself reported, so escape hatches cannot outlive
// their reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"smartbadge/internal/analysis"
	"smartbadge/internal/analysis/ctxflow"
	"smartbadge/internal/analysis/detcheck"
	"smartbadge/internal/analysis/lockcheck"
	"smartbadge/internal/analysis/unitcheck"
)

// Analyzers is the project suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	detcheck.Analyzer,
	unitcheck.Analyzer,
	ctxflow.Analyzer,
	lockcheck.Analyzer,
}

// jsonFinding is the machine-readable record emitted per diagnostic in
// -json mode, one object per line.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Message  string `json:"message"`
}

// lintMain runs the suite over patterns resolved relative to dir, writing
// findings to out (JSONL when asJSON) and errors to errOut. The exit code
// is 0 for a clean run, 1 for findings, 2 for a load or analyzer failure —
// the same contract main exposes, factored out so tests can drive it.
func lintMain(dir string, patterns []string, asJSON bool, out, errOut io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(errOut, "smartbadge-lint:", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, Analyzers)
	if err != nil {
		fmt.Fprintln(errOut, "smartbadge-lint:", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(out)
		for _, d := range diags {
			if err := enc.Encode(jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintln(errOut, "smartbadge-lint:", err)
				return 2
			}
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "smartbadge-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

func main() {
	asJSON := flag.Bool("json", false, "emit one JSON object per finding ({analyzer, file, line, message})")
	flag.Parse()
	os.Exit(lintMain(".", flag.Args(), *asJSON, os.Stdout, os.Stderr))
}
