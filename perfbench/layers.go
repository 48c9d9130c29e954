package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"speccat/internal/core/prover"
	"speccat/internal/explore"
	"speccat/internal/thesis"
)

// layerMetric is one per-layer metric and the end-to-end metric (and
// workload) a change to its layer should move.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics lists every per-layer metric the traced run reports.
func layerMetrics() []layerMetric {
	both := " on serve-transfer and serve-hotspot"
	return []layerMetric{
		{"traced.commit_per_s", "1/s", "higher", "tracing overhead: compare with inproc.commit_per_s"},
		{"inproc.commit_per_s", "1/s", "higher", "commit_per_s" + both + " (same cluster, in process, untraced)"},
		{"txn.commit_ms_p50", "ms", "lower", "latency_p50_ms" + both},
		{"txn.commit_ms_p99", "ms", "lower", "latency_p99_ms" + both},
		{"txn.submit_wait_ms_p50", "ms", "lower", "latency_p99_ms on serve-transfer"},
		{"txn.abort_ratio", "ratio", "lower", "commit_per_s on serve-hotspot"},
		{"tpc.msgs_per_commit", "count", "lower", "latency_p50_ms" + both},
		{"tpc.prepare_round_ms_p50", "ms", "lower", "latency_p50_ms" + both},
		{"tpc.precommit_round_ms_p50", "ms", "lower", "latency_p50_ms" + both},
		{"tpc.commit_round_ms_p50", "ms", "lower", "latency_p50_ms" + both},
		{"tcp.hop_ms_p50", "ms", "lower", "latency_p50_ms on serve-transfer"},
		{"tcp.hop_ms_p99", "ms", "lower", "latency_p50_ms on serve-transfer"},
		{"tcp.frames_per_commit", "count", "lower", "commit_per_s on serve-transfer"},
		{"tcp.bytes_per_commit", "B", "lower", "commit_per_s on serve-transfer"},
		{"tcp.encode_us_p50", "us", "lower", "commit_per_s on serve-transfer"},
		{"tcp.decode_us_p50", "us", "lower", "commit_per_s on serve-transfer"},
		{"tcp.dropped", "count", "lower", "failed operations" + both},
		{"tcp.reconnects", "count", "lower", "failed operations" + both},
		{"stable.fsyncs_per_commit", "count", "lower", "commit_per_s on serve-transfer"},
		{"stable.batch_size_mean", "count", "higher", "commit_per_s on serve-transfer"},
		{"stable.journal_bytes_per_commit", "B", "lower", "commit_per_s on serve-transfer"},
		{"stable.log_writes_per_commit", "count", "lower", "commit_per_s on serve-transfer"},
		{"stable.replay_ms", "ms", "lower", "restart_s" + both},
		{"wal.decode_ms_end", "ms", "lower", "latency_p99_ms and commit_per_s on serve-hotspot; no change on serve-transfer"},
		{"kvstore.abort_ms_end", "ms", "lower", "latency_p99_ms and commit_per_s on serve-hotspot; no change on serve-transfer"},
		{"thesis.elaborate_ms", "ms", "lower", "setup_s" + both},
		{"prover.Serialize_ms", "ms", "lower", "prove_s" + both},
		{"prover.RBR_ms", "ms", "lower", "prove_s" + both},
		{"prover.CSM_ms", "ms", "lower", "prove_s" + both},
		{"prover.BackupElection_ms", "ms", "lower", "prove_s" + both},
		{"prover.ViewAgreement_ms", "ms", "lower", "prove_s" + both},
		{"prover.mono_Serialize_ms", "ms", "lower", "prove_monolithic_s" + both},
		{"prover.mono_CSM_ms", "ms", "lower", "prove_monolithic_s" + both},
		{"prover.mono_RBR_ms", "ms", "lower", "prove_monolithic_s" + both},
		{"prover.mono_BackupElection_ms", "ms", "lower", "prove_monolithic_s" + both},
		{"prover.generated", "count", "lower", "prove_s and prove_monolithic_s" + both},
		{"prover.retained", "count", "lower", "prove_s and prove_monolithic_s" + both},
		{"prover.iterations", "count", "lower", "prove_s and prove_monolithic_s" + both},
		{"prover.cache_hit_ratio", "ratio", "higher", "prove_s" + both},
		{"provesched.speedup", "x", "higher", "prove_s" + both},
		{"mc.states", "count", "lower", "explore_runs_per_s" + both},
		{"mc.states_per_s", "1/s", "higher", "explore_runs_per_s" + both},
		{"explore.steps_per_run", "count", "lower", "explore_runs_per_s" + both},
		{"explore.sends_per_run", "count", "lower", "explore_runs_per_s" + both},
	}
}

// printMapping prints each per-layer metric with the end-to-end metric
// it should move, and fails loudly (as a missing line) on any metric the
// run did not produce.
func printMapping(ms map[string]metric) {
	for _, l := range layerMetrics() {
		m, ok := ms[l.name]
		if !ok {
			fmt.Printf("layer %-32s MISSING -> %s\n", l.name, l.moves)
			continue
		}
		fmt.Printf("layer %-32s %14.6g %-5s (%s is better) -> %s\n", l.name, m.Value, m.Unit, l.better, l.moves)
	}
}

// unitOf returns a per-layer metric's unit from the table.
func unitOf(name string) string {
	for _, l := range layerMetrics() {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// layerSet builds a metric map from bare values, taking units from the
// table.
func layerSet(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{v, unitOf(k)}
	}
	return out
}

// tracedServeStage alternates untraced and traced rounds on the
// in-process cluster and reports the serving layers' metrics from the
// traced rounds; the untraced rounds give the overhead baseline. Both
// throughputs are medians over rounds, as in the untraced run, so the
// process's first round does not tilt the comparison.
type tracedServeStage struct {
	o                       options
	w                       workloadSpec
	tr                      *tracer
	plain, traced           *recorder
	plainRates, tracedRates []float64 // committed per second, per round
	delta                   counters
	probes                  []journalProbe
}

func newTracedServeStage(o options, w workloadSpec) (*tracedServeStage, error) {
	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	return &tracedServeStage{o: o, w: w, tr: tr, plain: &recorder{}, traced: &recorder{}}, nil
}

func (s *tracedServeStage) step(round int) error {
	useTracer := round%2 == 1
	dir := filepath.Join(s.o.workDir, fmt.Sprintf("traced-round%d", round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("round dir: %w", err)
	}
	var t *tracer
	if useTracer {
		t = s.tr
	}
	rec, elapsed, d, p, err := inprocRound(dir, s.w, s.o.seed, round, t)
	if err != nil {
		return fmt.Errorf("traced round %d: %w", round, err)
	}
	if rec.failed > 0 {
		return fmt.Errorf("traced round %d: %d failed client transactions, first: %s", round, rec.failed, rec.failures[0])
	}
	rate := float64(rec.committed) / elapsed.Seconds()
	if useTracer {
		s.traced.merge(rec)
		s.tracedRates = append(s.tracedRates, rate)
		s.delta = s.delta.plus(d)
		s.probes = append(s.probes, p...)
	} else {
		s.plain.merge(rec)
		s.plainRates = append(s.plainRates, rate)
	}
	fmt.Printf("traced round %d (tracer %v): %d txns (%d committed, %d aborted) in %.3fs\n",
		round, useTracer, rec.attempted(), rec.committed, rec.aborted, elapsed.Seconds())
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("remove round dir: %w", err)
	}
	return nil
}

func (s *tracedServeStage) result() stageResult {
	tr, delta := s.tr, s.delta
	tr.mu.Lock()
	defer tr.mu.Unlock()
	commits := float64(s.traced.committed)
	var replay, decode, abort []float64
	for _, p := range s.probes {
		replay = append(replay, p.replayMS)
		decode = append(decode, p.walDecodeMS)
		abort = append(abort, p.abortMS)
	}
	fmt.Printf("traced: hop samples=%d mismatched=%d, commit samples=%d, rounds prepare=%d precommit=%d commit=%d\n",
		len(tr.hopMS), tr.hopMismatches, len(tr.commitMS), len(tr.roundMS[0]), len(tr.roundMS[1]), len(tr.roundMS[2]))
	vals := map[string]float64{
		"traced.commit_per_s":             median(s.tracedRates),
		"inproc.commit_per_s":             median(s.plainRates),
		"txn.commit_ms_p50":               quantile(tr.commitMS, 0.50),
		"txn.commit_ms_p99":               quantile(tr.commitMS, 0.99),
		"txn.submit_wait_ms_p50":          quantile(tr.submitWaitMS, 0.50),
		"txn.abort_ratio":                 float64(s.traced.aborted) / float64(s.traced.attempted()),
		"tpc.msgs_per_commit":             float64(tr.tpcMsgs) / commits,
		"tpc.prepare_round_ms_p50":        quantile(tr.roundMS[roundPrepare], 0.50),
		"tpc.precommit_round_ms_p50":      quantile(tr.roundMS[roundPrecommit], 0.50),
		"tpc.commit_round_ms_p50":         quantile(tr.roundMS[roundCommit], 0.50),
		"tcp.hop_ms_p50":                  quantile(tr.hopMS, 0.50),
		"tcp.hop_ms_p99":                  quantile(tr.hopMS, 0.99),
		"tcp.frames_per_commit":           float64(delta.frames) / commits,
		"tcp.bytes_per_commit":            float64(tr.frameBytes) / commits,
		"tcp.encode_us_p50":               quantile(tr.encodeUS, 0.50),
		"tcp.decode_us_p50":               quantile(tr.decodeUS, 0.50),
		"tcp.dropped":                     float64(delta.dropped),
		"tcp.reconnects":                  float64(delta.reconnects),
		"stable.fsyncs_per_commit":        float64(delta.syncs) / commits,
		"stable.batch_size_mean":          float64(tr.dispatched) / float64(delta.syncs),
		"stable.journal_bytes_per_commit": float64(delta.journalBytes) / commits,
		"stable.log_writes_per_commit":    float64(delta.logWrites) / commits,
		"stable.replay_ms":                median(replay),
		"wal.decode_ms_end":               median(decode),
		"kvstore.abort_ms_end":            median(abort),
	}
	return stageResult{
		attempted: s.plain.attempted() + s.traced.attempted(),
		metrics:   layerSet(vals),
	}
}

func (k counters) plus(o counters) counters {
	return counters{
		frames: k.frames + o.frames, dropped: k.dropped + o.dropped, reconnects: k.reconnects + o.reconnects,
		syncs: k.syncs + o.syncs, logWrites: k.logWrites + o.logWrites, journalBytes: k.journalBytes + o.journalBytes,
	}
}

// inprocRound runs one round on a fresh in-process cluster: fund, load,
// settle and audit; with a tracer it also returns the load's counter
// deltas and probes every cohort's closed journal.
func inprocRound(dir string, w workloadSpec, seed int64, round int, tr *tracer) (*recorder, time.Duration, counters, []journalProbe, error) {
	cl, err := bootInproc(dir, tr)
	if err != nil {
		return nil, 0, counters{}, nil, err
	}
	defer cl.close() // no-op after the explicit close below
	if err := fund(cl, w); err != nil {
		return nil, 0, counters{}, nil, err
	}
	before, err := cl.counters()
	if err != nil {
		return nil, 0, counters{}, nil, err
	}
	if tr != nil {
		tr.record(true)
	}
	rec, elapsed, err := load(cl, w, seed, round)
	if err != nil {
		return nil, 0, counters{}, nil, err
	}
	final, err := settle(cl, w)
	if tr != nil {
		tr.record(false)
	}
	if err != nil {
		return nil, 0, counters{}, nil, err
	}
	after, err := cl.counters()
	if err != nil {
		return nil, 0, counters{}, nil, err
	}
	cl.close()
	if tr == nil {
		return rec, elapsed, counters{}, nil, nil
	}
	var probes []journalProbe
	for i, st := range final {
		keys := make([]string, 0, len(st))
		for k := range st {
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			continue
		}
		sort.Strings(keys)
		id := cl.sites[i].ID()
		p, err := probeJournal(cl.journal(id), filepath.Join(dir, fmt.Sprintf("node%d.copy", id)), keys[0])
		if err != nil {
			return nil, 0, counters{}, nil, fmt.Errorf("node %d: %w", id, err)
		}
		probes = append(probes, p)
	}
	return rec, elapsed, after.minus(before), probes, nil
}

// tracedToolStage times each verification layer's public calls one by
// one; each step is one cycle over every layer.
type tracedToolStage struct {
	c                          corpus
	elabMS                     []float64
	goalMS                     map[string][]float64
	seqMS, parMS, mcStatesPerS []float64
	generated, retained        int
	iterations, mcStates       int
	cacheHitRatio              float64
	stepsPerRun, sendsPerRun   float64
	attempted                  int
}

func newTracedToolStage() (*tracedToolStage, error) {
	t := &tracedToolStage{goalMS: map[string][]float64{}}
	for i := 0; i < setupRepeats; i++ {
		start := now()
		if _, err := thesis.CorpusWithoutProofs(); err != nil {
			return nil, err
		}
		t.elabMS = append(t.elabMS, msSince(start))
	}
	c, err := elaborate()
	if err != nil {
		return nil, err
	}
	t.c = c
	if _, err := proveCorpus(c, proveWorkers, nil); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tracedToolStage) step(cycle int) error {
	c := t.c
	// Each obligation alone, on one worker: the prover's own time.
	for i, ob := range c.obs {
		start := now()
		rs, err := proveCorpus(corpus{env: c.env, obs: c.obs[i : i+1]}, 1, nil)
		if err != nil {
			return err
		}
		name := "prover." + ob.Theorem + "_ms"
		t.goalMS[name] = append(t.goalMS[name], msSince(start))
		if cycle == 0 {
			t.count(rs[0].Proof.Stats)
		}
		t.attempted++
	}
	// Whole passes, sequential and on the pool, for the speedup; the pool
	// pass runs on a fresh clause cache to read its hit ratio.
	start := now()
	if _, err := proveCorpus(c, 1, nil); err != nil {
		return err
	}
	t.seqMS = append(t.seqMS, msSince(start))
	cache := prover.NewClauseCache()
	start = now()
	if _, err := proveCorpus(c, proveWorkers, cache); err != nil {
		return err
	}
	t.parMS = append(t.parMS, msSince(start))
	hits, misses := cache.Stats()
	t.cacheHitRatio = float64(hits) / float64(hits+misses)
	t.attempted += 2 * len(c.obs)
	for _, prop := range thesis.GlobalProperties() {
		start := now()
		r, err := thesis.ProveMonolithic(c.env, prop)
		ms := msSince(start)
		var proof *prover.Result
		if err == nil {
			proof = r.Proof
		}
		if err := checkProof("monolithic "+prop, proof, err); err != nil {
			return err
		}
		name := "prover.mono_" + prop + "_ms"
		t.goalMS[name] = append(t.goalMS[name], ms)
		if cycle == 0 {
			t.count(proof.Stats)
		}
		t.attempted++
	}
	start = now()
	res, err := modelCheck()
	if err != nil {
		return err
	}
	t.mcStatesPerS = append(t.mcStatesPerS, float64(res.States)/now().Sub(start).Seconds())
	t.mcStates = res.States
	t.attempted++
	if t.stepsPerRun, t.sendsPerRun, err = exploreRunStats(); err != nil {
		return err
	}
	t.attempted += exploreSeeds
	return nil
}

// count adds one proof's search counts (taken from the first cycle
// only: they are exact and repeat every cycle).
func (t *tracedToolStage) count(st prover.Stats) {
	t.generated += st.Generated
	t.retained += st.Retained
	t.iterations += st.Iterations
}

func (t *tracedToolStage) result() stageResult {
	vals := map[string]float64{
		"thesis.elaborate_ms":    median(t.elabMS),
		"prover.generated":       float64(t.generated),
		"prover.retained":        float64(t.retained),
		"prover.iterations":      float64(t.iterations),
		"prover.cache_hit_ratio": t.cacheHitRatio,
		"provesched.speedup":     median(t.seqMS) / median(t.parMS),
		"mc.states":              float64(t.mcStates),
		"mc.states_per_s":        median(t.mcStatesPerS),
		"explore.steps_per_run":  t.stepsPerRun,
		"explore.sends_per_run":  t.sendsPerRun,
	}
	for name, xs := range t.goalMS {
		vals[name] = median(xs)
	}
	return stageResult{attempted: t.attempted, metrics: layerSet(vals)}
}

// exploreRunStats runs the fault-free schedule of every seed in the
// explorer's block and averages its simulator steps and sends.
func exploreRunStats() (steps, sends float64, err error) {
	for seed := int64(1); seed <= exploreSeeds; seed++ {
		res, err := explore.Run(explore.Schedule{Protocol: explore.Proto3PC, Seed: seed, Sites: 3, Accounts: 8, Txns: 12})
		if err != nil {
			return 0, 0, fmt.Errorf("explore seed %d: %w", seed, err)
		}
		if len(res.Violations) != 0 {
			return 0, 0, fmt.Errorf("explore seed %d: fault-free run violated %s", seed, res.Violations[0].Oracle)
		}
		steps += float64(res.Stats.Steps)
		sends += float64(res.Stats.TotalSends)
	}
	return steps / exploreSeeds, sends / exploreSeeds, nil
}
