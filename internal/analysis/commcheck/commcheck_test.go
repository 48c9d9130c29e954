package commcheck

import (
	"reflect"
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

// TestRepoIsCommClean is the acceptance criterion: the repository's own
// lock matrix matches the prover-discharged spec and every annotated
// KV operation acquires the mode its commutativity class requires — and
// the analysis demonstrably covered them (five bound classes, a compared
// matrix with discharged proofs, annotated ops with real Acquire sites;
// a clean run over nothing would prove nothing).
func TestRepoIsCommClean(t *testing.T) {
	rep, diags := Run(loadRepo(t))
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	for class, wantConst := range map[string]string{
		"read":   "Read",
		"write":  "Write",
		"inc":    "IncMode",
		"append": "AppendMode",
		"setins": "SetInsMode",
	} {
		if got := rep.Classes[class]; got != wantConst {
			t.Errorf("class %s bound to %q, want %q", class, got, wantConst)
		}
	}
	if len(rep.Matrices) != 1 || rep.Matrices[0] != "comm.sw" {
		t.Errorf("Matrices = %v, want exactly the locking matrix", rep.Matrices)
	}
	if rep.Proofs != 4 {
		t.Errorf("Proofs = %d, want 4 discharged obligations", rep.Proofs)
	}
	if rep.Entries != 25 {
		t.Errorf("Entries = %d, want the full 5x5 matrix compared", rep.Entries)
	}
	for op, wantClass := range map[string]string{
		"Store.Get":       "read",
		"Store.Put":       "write",
		"Store.Increment": "inc",
		"Store.Append":    "append",
		"Store.SetInsert": "setins",
	} {
		if got := rep.Ops[op]; got != wantClass {
			t.Errorf("op %s bound to class %q, want %q", op, got, wantClass)
		}
	}
	if rep.AcquireSites < 5 {
		t.Errorf("AcquireSites = %d, want at least one checked site per annotated op", rep.AcquireSites)
	}
}

// TestCommCleanFixture pins that a fully well-formed package produces
// zero findings, with the coverage counters proving the analysis ran:
// three bound classes, a compared 3x3 matrix backed by two discharged
// proofs, four annotated ops, and a reasoned suppression on the
// deliberate recovery overlock.
func TestCommCleanFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "commclean")
	rep, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)
	want := &Report{
		Classes:      map[string]string{"inc": "incLock", "read": "readLock", "write": "writeLock"},
		Ops:          map[string]string{"Store.Get": "read", "Store.Inc": "inc", "Store.Put": "write", "Store.Rebuild": "inc"},
		Matrices:     []string{"comm.sw"},
		Proofs:       2,
		Entries:      9,
		AcquireSites: 4,
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("coverage = %+v\nwant       %+v", *rep, *want)
	}
}

// TestCommBadFixture pins one finding per seeded mutation class.
func TestCommBadFixture(t *testing.T) {
	dir := analysistest.FixtureDir(t, "commbad")
	_, diags := Run(analysistest.Load(t, dir))
	analysistest.Check(t, dir, diags)

	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Rule]++
	}
	if counts[RuleMatrix] != 2 {
		t.Errorf("comm-matrix findings = %d, want 2 (one flip per direction)", counts[RuleMatrix])
	}
	if counts[RuleOverlock] != 2 {
		t.Errorf("comm-overlock findings = %d, want 2 (plain, and behind the reasonless ignore)", counts[RuleOverlock])
	}
	if counts[RuleUnderlock] != 1 {
		t.Errorf("comm-underlock findings = %d, want 1", counts[RuleUnderlock])
	}
	if counts[RuleExtract] != 6 {
		t.Errorf("comm-extract findings = %d, want 6 (unattached mode, unknown verb, unknown class, reasonless ignore, non-constant mode, unbound mode)", counts[RuleExtract])
	}
}

// TestDeriveRejectsUndeclaredClass pins the guard that a caller class
// with no constant in the spec fails derivation instead of silently
// deriving an all-conflicting row.
func TestDeriveRejectsUndeclaredClass(t *testing.T) {
	src := `S = spec
sort Classes
op read : Classes
endspec
`
	if _, err := Derive(src, []string{"read", "mystery"}); err == nil {
		t.Fatal("Derive accepted a class the spec never declares")
	}
}
