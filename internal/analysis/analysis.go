// Package analysis is a vet-style multi-analyzer framework over the
// standard library's go/ast, go/parser and go/types packages. It encodes
// the repository's DESIGN.md design rules — no panics reachable from
// exported API, no wall-clock time outside the simulator, no global
// math/rand source, no package-level mutable state, %w error wrapping —
// as mechanical checks, in the same spirit as the paper's thesis that
// composition errors should be caught by cheap static well-formedness
// checks before any prover (or reviewer) runs.
//
// Findings can be suppressed at the site with a reason:
//
//	//lint:allow <rule> <reason...>
//
// placed either at the end of the offending line or on the line
// immediately above it. A suppression without a reason is itself a
// finding.
//
// The package is also the substrate of the protocol analysis layers
// (fsmcheck, durcheck, portcheck, commcheck, lockcheck): Facts parses
// every layer's comment directives with one grammar, indexes the
// function declarations, resolves the call graph once per load and holds
// the suppression index, and Walker is the branch-sensitive statement
// walker the dataflow layers share.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// ShortPos renders a position of the package as "file.go:line", the form
// findings cite a second site in.
func (p *Package) ShortPos(pos token.Pos) string {
	if pos == token.NoPos {
		return "?"
	}
	at := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(at.Filename), at.Line)
}

// Analyzer is one named design-rule check.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-line description of the rule.
	Doc string
	// Run reports findings on one package through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	(*Findings)(p.diags).Reportf(p.Pkg.Fset.Position(pos), p.Analyzer.Name, format, args...)
}

// Findings accumulates the diagnostics of one analysis run.
type Findings []Diagnostic

// Reportf records a finding of rule at pos.
func (f *Findings) Reportf(pos token.Position, rule, format string, args ...any) {
	*f = append(*f, Diagnostic{Pos: pos, Rule: rule, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full rule set in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoPanic,
		NoWallClock,
		NoRand,
		NoGlobalState,
		ErrWrap,
	}
}

// ByName returns the named analyzer, if registered.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run applies the analyzers to the packages; see Check.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return Check(NewFacts(pkgs), analyzers)
}

// Check applies the analyzers to the fact base's packages and returns the
// surviving diagnostics, sorted by position: findings covered by a
// reasoned //lint:allow for their rule on the same or the preceding line
// are dropped, and every malformed //lint:allow (missing rule or reason)
// is itself a finding.
func Check(f *Facts, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range f.Pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
	}
	diags = f.Unsuppressed(diags, "lint:allow")
	for _, d := range f.Directives("lint") {
		if d.Verb == "allow" && len(d.Args) < 2 {
			diags = append(diags, Diagnostic{
				Pos:     d.Pos,
				Rule:    "lint-allow",
				Message: "malformed suppression: want //lint:allow <rule> <reason>",
			})
		}
	}
	SortDiagnostics(diags)
	return diags
}
