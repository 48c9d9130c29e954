// Package layers is the ordered list of the Go static-analysis layers.
// speccatlint and speccat -lint both run this one list over one shared
// fact base (analysis.Facts), so a layer added here is run by both.
package layers

import (
	"strings"

	"speccat/internal/analysis"
	"speccat/internal/analysis/commcheck"
	"speccat/internal/analysis/durcheck"
	"speccat/internal/analysis/fsmcheck"
	"speccat/internal/analysis/lockcheck"
	"speccat/internal/analysis/portcheck"
)

// Layer is one Go analysis layer: a rule catalogue over the fact base.
type Layer struct {
	// Name selects the layer (speccatlint -only) and tags its findings.
	Name string
	// Rules names the rules the layer reports.
	Rules string
	// Doc is a one-line description.
	Doc string
	// Check runs the layer and returns its coverage report (the layer
	// package's *Report; nil for base) and its findings, suppressions
	// applied, sorted by position.
	Check func(*analysis.Facts) (any, []analysis.Diagnostic)
}

// Go returns the Go layers in run order.
func Go() []Layer {
	var base []string
	for _, a := range analysis.Analyzers() {
		base = append(base, a.Name)
	}
	return []Layer{
		{"base", strings.Join(base, ", "), "Go design rules of DESIGN.md (internal/analysis)",
			func(f *analysis.Facts) (any, []analysis.Diagnostic) {
				return nil, analysis.Check(f, analysis.Analyzers())
			}},
		{"fsm", "fsm-*", "protocol state-machine extraction, totality and model cross-validation (fsmcheck)",
			func(f *analysis.Facts) (any, []analysis.Diagnostic) { return fsmcheck.Check(f) }},
		{"dur", "dur-*", "write-ahead / durability-ordering dataflow analysis (durcheck)",
			func(f *analysis.Facts) (any, []analysis.Diagnostic) { return durcheck.Check(f) }},
		{"port", "rt-*", "runtime-boundary / state-confinement analysis (portcheck)",
			func(f *analysis.Facts) (any, []analysis.Diagnostic) { return portcheck.Check(f) }},
		{"comm", "comm-*", "commutativity-derived lock modes vs the discharged spec matrix (commcheck)",
			func(f *analysis.Facts) (any, []analysis.Diagnostic) { return commcheck.Check(f) }},
		{"lock", "lock-*", "two-phase-locking / cross-shard lock-order dataflow analysis (lockcheck)",
			func(f *analysis.Facts) (any, []analysis.Diagnostic) { return lockcheck.Check(f) }},
	}
}
