package lockcheck

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

// TestRepoIsLockClean is the acceptance criterion: the repository's own
// engines follow the lock discipline (with reasoned suppressions where a
// policy argument replaces the static one), and the analysis demonstrably
// covered them — roots found, acquire/release sites counted, routed calls
// and SyncThen continuations examined. A clean run over zero lock events
// would be vacuous, not clean.
func TestRepoIsLockClean(t *testing.T) {
	rep, diags := Run(loadRepo(t))
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	roots := strings.Join(rep.Roots, " ")
	for _, want := range []string{
		"Store.Get", "Store.Put", "Store.Increment", // //comm:op store operations
		"Master.handle", "Site.handle", // //fsm:handler engines
		"Site.applyDecision", // the //lock:handler-opted commit-path callback
		"Cohort.HandleMessage", "Coordinator.HandleMessage",
	} {
		if !strings.Contains(roots, want) {
			t.Errorf("analysis roots missing %s (got %s)", want, roots)
		}
	}
	if rep.Analyzed < 15 {
		t.Errorf("Analyzed = %d, want >= 15 (coverage collapsed)", rep.Analyzed)
	}
	if rep.AcquireSites < 6 {
		t.Errorf("AcquireSites = %d, want >= 6 (one per store operation)", rep.AcquireSites)
	}
	if rep.ReleaseSites < 2 {
		t.Errorf("ReleaseSites = %d, want >= 2 (Commit and Abort)", rep.ReleaseSites)
	}
	if rep.RoutedCalls < 6 {
		t.Errorf("RoutedCalls = %d, want >= 6 (the shard-routed DB dispatches)", rep.RoutedCalls)
	}
	if rep.SyncThenSites < 3 {
		t.Errorf("SyncThenSites = %d, want >= 3 (the durability-wait continuations)", rep.SyncThenSites)
	}
}

// TestLockCleanFixture: every clean shape is accepted, and the fixture
// exercised the analysis for real (acquire sites seen, a routed loop
// examined, a continuation scanned).
func TestLockCleanFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "lockclean")
	rep, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	want := &Report{
		Roots:         []string{"engine.audit", "engine.commit", "engine.pair", "engine.scan", "engine.sweep", "engine.transfer"},
		Analyzed:      8,
		AcquireSites:  7,
		ReleaseSites:  8,
		RoutedCalls:   3,
		SyncThenSites: 1,
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("coverage = %+v\nwant       %+v", *rep, *want)
	}
}

// TestLockBadFixture: exactly one finding per seeded mutation class, each
// on its seeded line.
func TestLockBadFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "lockbad")
	_, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
}

var crossValSeeds = []int64{1, 2, 3}

// TestCrossValidateConfirmsFinding closes the static→dynamic loop: the
// lockbad fixture's lock-order finding compiles into an opposed-workload
// schedule whose sharded, lock-waiting run stalls into a fault-free
// progress violation (the cross-manager deadlock neither per-shard
// detector sees), while the identical schedule under canonical lock order
// finishes clean — isolating the acquisition order as the cause.
func TestCrossValidateConfirmsFinding(t *testing.T) {
	dir := analysistest.FixtureDir(t, "lockbad")
	_, diags := Run(analysistest.Load(t, dir))
	var finding *analysis.Diagnostic
	for i := range diags {
		if diags[i].Rule == RuleOrder {
			finding = &diags[i]
			break
		}
	}
	if finding == nil {
		t.Fatal("lockbad fixture yielded no lock-order finding to cross-validate")
	}
	cv, err := CrossValidate(*finding, crossValSeeds)
	if err != nil {
		t.Fatal(err)
	}
	if cv == nil {
		t.Fatal("no dynamic witness for the lock-order finding")
	}
	stalled := false
	for _, oracle := range cv.Violated {
		if oracle == "progress" {
			stalled = true
		}
	}
	if !stalled {
		t.Errorf("witness violated %v, want the progress oracle", cv.Violated)
	}
	if !cv.CanonicalClean {
		t.Error("canonical-order control arm was not clean; the witness does not isolate acquisition order")
	}
	if cv.Schedule.Shards < 2 || !cv.Schedule.LockWait || cv.Schedule.CanonicalLockOrder {
		t.Errorf("witness schedule is not the sharded lock-waiting ablation: %+v", cv.Schedule)
	}
}

// TestCrossValidateRejectsOtherRules: only lock-order findings have a
// dynamic twin; handing any other rule over is a caller bug.
func TestCrossValidateRejectsOtherRules(t *testing.T) {
	_, err := CrossValidate(analysis.Diagnostic{Rule: RuleLeak}, crossValSeeds)
	if err == nil {
		t.Fatal("CrossValidate accepted a non-lock-order finding")
	}
}
