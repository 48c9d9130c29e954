package portcheck

import (
	"reflect"
	"strings"
	"testing"

	"speccat/internal/analysis"
	"speccat/internal/analysis/analysistest"
)

// loadRepo loads this repository's internal tree.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestRepoIsPortClean is the acceptance criterion: the repository's own
// engines respect the rt runtime boundary and keep their handler state
// confined, and the analysis demonstrably covered them (engines, roles,
// roots and a real call graph — a clean run over nothing would prove
// nothing).
func TestRepoIsPortClean(t *testing.T) {
	rep, diags := Run(loadRepo(t))
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	engines := strings.Join(rep.Engines, " ")
	for _, want := range []string{
		"internal/tpc", "internal/txn", "internal/kvstore",
		"internal/election", "internal/broadcast", "internal/consensus",
		"internal/detector", "internal/recovery", "internal/checkpoint",
	} {
		if !strings.Contains(engines, want) {
			t.Errorf("engine packages missing %s (got %s)", want, engines)
		}
	}
	confined := strings.Join(rep.Confined, " ")
	for _, want := range []string{
		"tpc.Coordinator", "tpc.Cohort", "txn.Master", "txn.Site",
		"election.Node", "broadcast.Endpoint", "consensus.Node",
		"detector.Detector", "checkpoint.Node",
	} {
		if !strings.Contains(confined, want) {
			t.Errorf("confined role types missing %s (got %s)", want, confined)
		}
	}
	roots := strings.Join(rep.Roots, " ")
	for _, want := range []string{"Coordinator.HandleMessage", "Cohort.HandleMessage", "Master.handle"} {
		if !strings.Contains(roots, want) {
			t.Errorf("analysis roots missing %s (got %s)", want, roots)
		}
	}
	if rep.Analyzed < 30 {
		t.Errorf("confinement analysis covered only %d functions; coverage collapsed", rep.Analyzed)
	}
}

// TestPortCleanFixture pins that a well-ported engine produces zero
// findings: rt-only imports, event-loop timers, a guarded field touched
// from a goroutine, transition-then-persist-then-send ordering, and a
// reasoned rt-boundary suppression on a harness import.
func TestPortCleanFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "portclean")
	rep, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	want := &Report{
		Engines:  []string{"speccat/internal/analysis/portcheck/testdata/src/portclean"},
		Confined: []string{"portclean.Node"},
		Roots:    []string{"Node.HandleMessage"},
		Analyzed: 4,
		Guards:   map[string]string{"Node.mu": "mutex", "Node.stats": "mutex"},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("coverage = %+v\nwant       %+v", *rep, *want)
	}
}

// TestPortBadFixture pins one finding per mutation class: simulator
// import, type assertion to a simulator concretion, goroutine field
// escape, stored-closure escape, returned interior pointer,
// send-before-transition, and malformed/unattached annotations.
func TestPortBadFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "portbad")
	_, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)

	// Each mutation class yields exactly one finding.
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Rule]++
	}
	if counts[RuleBoundary] != 2 {
		t.Errorf("rt-boundary findings = %d, want 2 (one import, one type assertion)", counts[RuleBoundary])
	}
	if counts[RuleConfine] != 3 {
		t.Errorf("rt-confine findings = %d, want 3 (goroutine escape, stored closure, interior pointer)", counts[RuleConfine])
	}
	if counts[RuleSendOrder] != 1 {
		t.Errorf("rt-sendorder findings = %d, want 1 (send hoisted above the transition)", counts[RuleSendOrder])
	}
	if counts[RuleExtract] != 3 {
		t.Errorf("rt-extract findings = %d, want 3 (unknown verb, misplaced engine, malformed guard)", counts[RuleExtract])
	}
}
