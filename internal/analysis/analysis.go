// Package analysis is a small, dependency-free static-analysis framework
// modelled on the golang.org/x/tools/go/analysis API (Analyzer, Pass,
// Diagnostic). The x/tools module is not vendored in this repository, so the
// subset the project's analyzers need is implemented here directly on top of
// go/ast, go/types and the go command: enough to write package-at-a-time
// analyzers with full type information, run them from a multichecker driver
// (cmd/smartbadge-lint), and test them against golden packages with
// analysistest-style "// want" comments (see the analysistest subpackage).
//
// The project analyzers live in the detcheck, unitcheck, ctxflow and
// lockcheck subpackages, over the shared call graph in callgraph;
// DESIGN.md ("Invariants enforced by static analysis") documents what each
// one guards.
//
// # Suppression
//
// A diagnostic can be silenced with an explicit escape hatch:
//
//	//lint:allow <analyzer> <reason>
//
// placed either on the offending line or alone on the line directly above
// it. The reason is mandatory — an allow directive without one is itself
// reported — so every suppression records why the invariant does not apply
// (e.g. the intentional wall-clock stamp in obs/manifest.go).
//
// Analysis covers the packages' non-test Go files: the invariants protect
// library and binary code, and the test suites exercise determinism
// end-to-end themselves.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"smartbadge/internal/analysis/callgraph"
)

// An Analyzer describes one analysis: a name (used in diagnostics and in
// //lint:allow directives), a doc string, and the Run function applied to
// each package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one package to an analyzer: the parsed files, the
// type-checked package object and the type information gathered during
// checking. Report and Reportf record diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Graph is the conservative static call graph over every package in
	// the current Run invocation, shared by all analyzers (see
	// internal/analysis/callgraph). Cross-package reachability queries only
	// see the packages loaded together — a full `./...` run sees the whole
	// module.
	Graph *callgraph.Graph

	diags *[]Diagnostic
	// markAllowUsed is wired by Run so analyzers that honour //lint:allow
	// directives at source sites in *other* packages (cross-package
	// reachability checks) can record the usage, keeping those directives
	// from being reported stale.
	markAllowUsed func(file string, line int, analyzer string)
}

// MarkAllowUsed records that the //lint:allow directive for analyzer on the
// given file line (if one exists) suppressed a finding, exempting it from
// stale-directive reporting. Run's own line-based filtering does this
// automatically for reported diagnostics; this entry point is for analyzers
// that honour allows at remote source sites instead of reporting.
func (p *Pass) MarkAllowUsed(file string, line int, analyzer string) {
	if p.markAllowUsed != nil {
		p.markAllowUsed(file, line, analyzer)
	}
}

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowRe matches a lint suppression directive. The analyzer name is
// mandatory; the reason is validated separately so a missing one can be
// reported rather than silently ignored.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_-]+)\s*(.*)$`)

// allowKey identifies a suppression target: one analyzer on one line.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowState tracks one directive so a stale allow — one that suppressed
// nothing — can itself be reported.
type allowState struct {
	pos  token.Position
	used bool
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. //lint:allow directives are applied here
// so individual analyzers stay suppression-unaware; malformed directives
// (no reason given) and stale directives (suppressing nothing) are reported
// under the "lint" pseudo-analyzer. A shared call graph over all the
// packages is built first and handed to every Pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	units := make([]*callgraph.Unit, len(pkgs))
	for i, pkg := range pkgs {
		units[i] = &callgraph.Unit{
			Fset:  pkg.Fset,
			Files: pkg.Syntax,
			Pkg:   pkg.Types,
			Info:  pkg.TypesInfo,
		}
	}
	graph := callgraph.Build(units)

	var diags []Diagnostic
	allowed := make(map[allowKey]*allowState)
	// All directives are collected before any analyzer runs: a pass on an
	// early package may honour (and mark used) an allow in a later one.
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			collectAllows(pkg.Fset, f, allowed, &diags)
		}
	}
	markAllowUsed := func(file string, line int, analyzer string) {
		if st, ok := allowed[allowKey{file, line, analyzer}]; ok {
			st.used = true
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:      a,
				Fset:          pkg.Fset,
				Files:         pkg.Syntax,
				Pkg:           pkg.Types,
				TypesInfo:     pkg.TypesInfo,
				Graph:         graph,
				diags:         &diags,
				markAllowUsed: markAllowUsed,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if st := firstAllow(allowed, d); st != nil {
			st.used = true
			continue
		}
		kept = append(kept, d)
	}
	// A directive for an analyzer that ran but suppressed nothing has
	// outlived its reason; report it so escape hatches cannot accumulate.
	// Directives naming analyzers outside this run are left alone (a
	// single-analyzer test run must not flag the other analyzers' allows).
	active := map[string]bool{"lint": true}
	for _, a := range analyzers {
		active[a.Name] = true
	}
	for key, st := range allowed {
		if !st.used && active[key.analyzer] {
			kept = append(kept, Diagnostic{
				Pos:      st.pos,
				Analyzer: "lint",
				Message: fmt.Sprintf(
					"stale //lint:allow %s: it suppresses no diagnostic; remove the directive",
					key.analyzer),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// firstAllow returns the directive state suppressing d: an allow on d's
// line or the line directly above.
func firstAllow(allowed map[allowKey]*allowState, d Diagnostic) *allowState {
	if st, ok := allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
		return st
	}
	if st, ok := allowed[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]; ok {
		return st
	}
	return nil
}

// collectAllows records every //lint:allow directive in f. A directive
// suppresses matching diagnostics on its own line and on the line below
// (covering both end-of-line and standalone-comment placement).
func collectAllows(fset *token.FileSet, f *ast.File, allowed map[allowKey]*allowState, diags *[]Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				if strings.HasPrefix(c.Text, "//lint:allow") {
					*diags = append(*diags, Diagnostic{
						Pos:      fset.Position(c.Pos()),
						Analyzer: "lint",
						Message:  "malformed //lint:allow directive: want //lint:allow <analyzer> <reason>",
					})
				}
				continue
			}
			if strings.TrimSpace(m[2]) == "" {
				*diags = append(*diags, Diagnostic{
					Pos:      fset.Position(c.Pos()),
					Analyzer: "lint",
					Message:  fmt.Sprintf("//lint:allow %s is missing a reason", m[1]),
				})
				continue
			}
			pos := fset.Position(c.Pos())
			allowed[allowKey{pos.Filename, pos.Line, m[1]}] = &allowState{pos: pos}
		}
	}
}

// AllowedLines returns the lines of f carrying a well-formed
// `//lint:allow <analyzer> <reason>` directive for the given analyzer.
// Analyzers that inspect *other* packages' syntax through the call graph
// (e.g. detcheck's transitive taint scan) use it to honour suppressions at
// the source site, which Run's own line-based filtering cannot see.
func AllowedLines(fset *token.FileSet, f *ast.File, analyzer string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil || m[1] != analyzer || strings.TrimSpace(m[2]) == "" {
				continue
			}
			lines[fset.Position(c.Pos()).Line] = true
		}
	}
	return lines
}
