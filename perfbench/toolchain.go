package main

import (
	"fmt"
	"slices"
	"time"

	"speccat/internal/core/prover"
	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
	"speccat/internal/explore"
	"speccat/internal/mc"
	"speccat/internal/thesis"
)

// proveWorkers is the provesched pool size, matching the two CPUs the
// benchmark was tuned on.
const proveWorkers = 2

// exploreSeeds is the fixed block of root seeds one explorer sweep
// covers (seeds 1..exploreSeeds); each seed costs a probe run plus its
// faulted run.
const exploreSeeds = 150

// mcCohorts is the 3PC model's cohort count.
const mcCohorts = 3

// corpusProvesPerCycle repeats the short corpus proof pass inside each
// toolchain cycle so its median rests on more samples than the
// multi-second monolithic pass gets.
const corpusProvesPerCycle = 3

// setupRepeats is how often the corpus is elaborated to take setup_s's
// median.
const setupRepeats = 9

// expectedObligation pins one corpus prove statement, in source order:
// the same theorems must be proved with the same using sets.
type expectedObligation struct {
	name, in, theorem string
	using             []string
}

func expectedObligations() []expectedObligation {
	return []expectedObligation{
		{"p1", "PR2", "Serialize", []string{"Agreebroad", "Agreeconsensus", "Storevalues", "Readlock"}},
		{"p3", "PR4", "RBR", []string{"Agreebroad", "Agreeconsensus", "Storevalues", "Writelock", "Checkpoint", "Recover", "RestoreAx"}},
		{"p2", "PR6", "CSM", []string{"Agreebroad", "Agreeconsensus", "Globprocstateinfo", "Constateinfo"}},
		{"p4", "PR9", "BackupElection", []string{"Timeout", "DeclareFailed", "CoordFailure", "Elect", "Installed"}},
		{"p5", "GM", "ViewAgreement", []string{"Agreebroad", "Agreeconsensus", "InstallFromDecision", "ProposalShared"}},
	}
}

// corpus is the elaborated thesis corpus and its proof obligations.
type corpus struct {
	env *speclang.Env
	obs []provesched.Obligation
}

// elaborate parses and elaborates the corpus and extracts its
// obligations, checking them against the pinned statements.
func elaborate() (corpus, error) {
	env, err := thesis.CorpusWithoutProofs()
	if err != nil {
		return corpus{}, err
	}
	obs, err := thesis.Obligations()
	if err != nil {
		return corpus{}, err
	}
	want := expectedObligations()
	if len(obs) != len(want) {
		return corpus{}, fmt.Errorf("corpus has %d prove statements, want %d", len(obs), len(want))
	}
	for i, ob := range obs {
		w := want[i]
		if ob.Name != w.name || ob.In != w.in || ob.Theorem != w.theorem || !slices.Equal(ob.Using, w.using) {
			return corpus{}, fmt.Errorf("prove statement %d is %s = %s in %s using %v, want %s = %s in %s using %v",
				i, ob.Name, ob.Theorem, ob.In, ob.Using, w.name, w.theorem, w.in, w.using)
		}
	}
	return corpus{env: env, obs: obs}, nil
}

// proveCorpus discharges every obligation on a pool of the given size
// and checks each proof.
func proveCorpus(c corpus, workers int, cache *prover.ClauseCache) ([]provesched.Result, error) {
	results := (&provesched.Scheduler{Workers: workers, Cache: cache}).Run(c.env, c.obs)
	for _, r := range results {
		if err := checkProof(r.Obligation.Name, r.Proof, r.Err); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// checkProof requires a successful refutation ending in the empty clause.
func checkProof(name string, res *prover.Result, err error) error {
	if err != nil {
		return fmt.Errorf("obligation %s: %w", name, err)
	}
	if res == nil || len(res.Proof) == 0 || !res.Proof[len(res.Proof)-1].Clause.IsEmpty() {
		return fmt.Errorf("obligation %s: no refutation", name)
	}
	return nil
}

// proveMonolithic runs the E9 flat ablation: each global property from
// its composite's full axiom set.
func proveMonolithic(c corpus) ([]*thesis.PropertyResult, error) {
	var out []*thesis.PropertyResult
	for _, prop := range thesis.GlobalProperties() {
		r, err := thesis.ProveMonolithic(c.env, prop)
		var proof *prover.Result
		if err == nil {
			proof = r.Proof
		}
		if err := checkProof("monolithic "+prop, proof, err); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// modelCheck model-checks 3PC under the thesis assumptions and requires
// atomicity in every reachable state and no deadlocked terminal state.
func modelCheck() (*mc.Result, error) {
	sys := mc.NewCommitModel(mc.Model3PC, mcCohorts, 1, mc.ModelOptions{Lockstep: true, AllowRecovery: true})
	res, err := mc.Explore(sys, []mc.Invariant{mc.InvariantAtomicity(mcCohorts)},
		mc.Options{TerminalOK: mc.TerminalAllDecided(mcCohorts)})
	if err != nil {
		return nil, fmt.Errorf("model check: %w", err)
	}
	if len(res.Violations) != 0 || len(res.Deadlocks) != 0 {
		return nil, fmt.Errorf("model check: %d violations, %d deadlocks", len(res.Violations), len(res.Deadlocks))
	}
	return res, nil
}

// sweep runs the explorer over the fixed 3PC seed block and requires no
// finding.
func sweep() (*explore.Report, error) {
	rep, err := explore.Explore(explore.Options{Protocol: explore.Proto3PC, Seeds: exploreSeeds, StartSeed: 1})
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if len(rep.Findings) != 0 {
		return nil, fmt.Errorf("explore: %d findings, first seed %d (%s)", len(rep.Findings), rep.Findings[0].Seed, rep.Findings[0].Oracle)
	}
	return rep, nil
}

// toolStage is the end-to-end toolchain stage. Its set-up elaborates
// the corpus; each step is one cycle of corpus proofs, the monolithic
// ablation, the model check and the explorer sweep.
type toolStage struct {
	c           corpus
	setups      []float64
	prove, mono []float64 // s
	exploreRuns int
	exploreTime time.Duration
	attempted   int
}

func newToolStage() (*toolStage, error) {
	t := &toolStage{}
	for i := 0; i < setupRepeats; i++ {
		start := now()
		c, err := elaborate()
		if err != nil {
			return nil, err
		}
		t.setups = append(t.setups, now().Sub(start).Seconds())
		t.c = c
	}
	// One untimed pass warms the heap and the scheduler's goroutines.
	if _, err := proveCorpus(t.c, proveWorkers, nil); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *toolStage) step(int) error {
	for i := 0; i < corpusProvesPerCycle; i++ {
		start := now()
		if _, err := proveCorpus(t.c, proveWorkers, nil); err != nil {
			return err
		}
		t.prove = append(t.prove, now().Sub(start).Seconds())
		t.attempted += len(t.c.obs)
	}
	start := now()
	ms, err := proveMonolithic(t.c)
	if err != nil {
		return err
	}
	t.mono = append(t.mono, now().Sub(start).Seconds())
	t.attempted += len(ms)
	if _, err := modelCheck(); err != nil {
		return err
	}
	t.attempted++
	start = now()
	rep, err := sweep()
	if err != nil {
		return err
	}
	t.exploreTime += now().Sub(start)
	t.exploreRuns += rep.Runs
	t.attempted += rep.Runs
	return nil
}

func (t *toolStage) result() stageResult {
	fmt.Printf("toolchain: corpus proofs %s\ntoolchain: monolithic %s\ntoolchain: explorer %d runs in %.3fs\n",
		fmtSeconds(t.prove), fmtSeconds(t.mono), t.exploreRuns, t.exploreTime.Seconds())
	return stageResult{
		attempted: t.attempted,
		setupS:    median(t.setups),
		metrics: map[string]metric{
			"prove_s":            {median(t.prove), "s"},
			"prove_monolithic_s": {median(t.mono), "s"},
			"explore_runs_per_s": {float64(t.exploreRuns) / t.exploreTime.Seconds(), "1/s"},
		},
	}
}
