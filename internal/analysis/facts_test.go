package analysis_test

import (
	"fmt"
	"go/token"
	"strings"
	"testing"

	"speccat/internal/analysis"
)

// render prints parsed directives as "layer:verb [args] rest" lines.
func render(ds []analysis.Directive) string {
	var out []string
	for _, d := range ds {
		out = append(out, fmt.Sprintf("%s %q %q", d.Key(), d.Args, d.Rest))
	}
	return strings.Join(out, "\n")
}

// TestParseDirectives pins the one directive grammar every layer reads:
// a comment is a directive comment iff it begins with a layer prefix,
// each "//" segment belongs to the layer it names whichever layer leads,
// verbs match exactly, and reason-bearing verbs keep their full text.
func TestParseDirectives(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"mixed, dur leads", "//dur:handler //comm:op write",
			[]string{`dur:handler [] ""`, `comm:op ["write"] "write"`}},
		{"mixed, dur leads fsm", "//dur:requires x //fsm:state tpc y",
			[]string{`dur:requires ["x"] "x"`, `fsm:state ["tpc" "y"] "tpc y"`}},
		{"mixed, fsm leads", "//fsm:msg tpc coordinator //dur:requires state //rt:guard loop why",
			[]string{`fsm:msg ["tpc" "coordinator"] "tpc coordinator"`, `dur:requires ["state"] "state"`, `rt:guard ["loop" "why"] "loop why"`}},
		{"mixed, lock leads", "//lock:handler //fsm:handler tpc cohort",
			[]string{`lock:handler [] ""`, `fsm:handler ["tpc" "cohort"] "tpc cohort"`}},
		{"prose mentioning a directive", "// handlers carry //fsm:handler tpc cohort", nil},
		{"exact verb", "//fsm:handlerX tpc cohort",
			[]string{`fsm:handlerX ["tpc" "cohort"] "tpc cohort"`}},
		{"reason keeps its text", "//lock:ignore the policy  argument: replaces it",
			[]string{`lock:ignore ["the" "policy" "argument:" "replaces" "it"] "the policy  argument: replaces it"`}},
		{"allow names a rule", "//lint:allow rt-boundary harness owns the wiring",
			[]string{`lint:allow ["rt-boundary" "harness" "owns" "the" "wiring"] "rt-boundary harness owns the wiring"`}},
		{"trailing note skipped", "//dur:requires // want `dur-extract: malformed`",
			[]string{`dur:requires [] ""`}},
		{"block comment", "/* fsm:state tpc q */", nil},
	} {
		got := render(analysis.ParseDirectives(tc.text))
		if want := strings.Join(tc.want, "\n"); got != want {
			t.Errorf("%s: ParseDirectives(%q) =\n%s\nwant\n%s", tc.name, tc.text, got, want)
		}
	}
}

// TestFactsAttachmentAndRoots pins directive attachment and the
// exact-verb root query over one loaded file: every layer sees its
// segments of a mixed comment, whichever layer leads.
func TestFactsAttachmentAndRoots(t *testing.T) {
	facts := analysis.NewFacts(loadSource(t, `//rt:engine
package toy

const kindGo = "go" //fsm:msg toy server //dur:requires state

type node struct {
	n int //dur:volatile
}

//dur:handler //comm:op write
func (x *node) both() { x.n++ }

//fsm:handlerX toy server
func notRoot() {}

func body() {
	//lock:handler
	_ = 0
}
`))
	attach := map[string]analysis.Attach{}
	for _, layer := range []string{"fsm", "dur", "rt", "comm", "lock"} {
		for _, d := range facts.Directives(layer) {
			attach[d.Key()] = d.Attach
		}
	}
	for key, want := range map[string]analysis.Attach{
		"rt:engine":    analysis.AttachPackage,
		"fsm:msg":      analysis.AttachValue,
		"dur:requires": analysis.AttachValue,
		"dur:volatile": analysis.AttachField,
		"dur:handler":  analysis.AttachFunc,
		"comm:op":      analysis.AttachFunc,
		"fsm:handlerX": analysis.AttachFunc,
		"lock:handler": analysis.AttachNone,
	} {
		if attach[key] != want {
			t.Errorf("%s attached %d, want %d", key, attach[key], want)
		}
	}
	for _, keys := range [][]string{{"dur:handler"}, {"comm:op"}, {"fsm:handler", "comm:op"}} {
		roots := facts.Roots(keys...)
		if len(roots) != 1 || roots[0].Name != "node.both" {
			t.Errorf("Roots(%v) = %v, want exactly node.both", keys, roots)
		}
	}
	if roots := facts.Roots("fsm:handler"); len(roots) != 0 {
		t.Errorf("Roots(fsm:handler) = %v; //fsm:handlerX must not match", roots)
	}
}

// TestSuppressed pins the suppression index: a reasoned //<layer>:<verb>
// covers any rule on its own and the next line, //lint:allow covers only
// the rule it names, and a reasonless directive covers nothing.
func TestSuppressed(t *testing.T) {
	pkgs := loadSource(t, `package toy

func f() {
	//lock:ignore a reason
	_ = 1
	//lint:allow nopanic a reason
	_ = 2
	//fsm:ignore
	_ = 3
}
`)
	facts := analysis.NewFacts(pkgs)
	file := pkgs[0].Fset.Position(pkgs[0].Files[0].Pos()).Filename
	at := func(line int, rule string) analysis.Diagnostic {
		return analysis.Diagnostic{Pos: token.Position{Filename: file, Line: line}, Rule: rule}
	}
	for _, tc := range []struct {
		d    analysis.Diagnostic
		key  string
		want bool
	}{
		{at(4, "lock-leak"), "lock:ignore", true},
		{at(5, "lock-order"), "lock:ignore", true},
		{at(6, "lock-leak"), "lock:ignore", false},
		{at(5, "lock-order"), "lock:ordered", false},
		{at(7, "nopanic"), "lint:allow", true},
		{at(7, "norand"), "lint:allow", false},
		{at(9, "fsm-dead"), "fsm:ignore", false},
	} {
		if got := facts.Suppressed(tc.d, tc.key); got != tc.want {
			t.Errorf("Suppressed(line %d %s, %s) = %v, want %v", tc.d.Pos.Line, tc.d.Rule, tc.key, got, tc.want)
		}
	}
}
