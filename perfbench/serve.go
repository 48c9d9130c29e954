package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// stage is one half of a run. The run interleaves the stages' steps
// until the budget is spent, so each stage samples the whole run rather
// than one stretch of a noisy shared host.
type stage interface {
	// step runs the stage's i-th round or cycle.
	step(i int) error
	// result summarizes every step so far.
	result() stageResult
}

// stageResult is what one stage contributes to the run's result.
type stageResult struct {
	attempted int
	failed    int
	setupS    float64
	metrics   map[string]metric
}

// serveStage is the end-to-end serving stage: each step boots a fresh
// cluster, funds it, drives the fixed transaction count, audits, restarts
// each cohort and stops the cluster.
type serveStage struct {
	o    options
	w    workloadSpec
	reap *reaper

	total            *recorder
	perSecond        []float64 // committed per second, per round
	p50, p99         []float64 // per round, ms
	setups, restarts []float64 // s
	rounds           int
}

func newServeStage(o options, w workloadSpec, reap *reaper) *serveStage {
	return &serveStage{o: o, w: w, reap: reap, total: &recorder{}}
}

func (s *serveStage) step(round int) error {
	dir := filepath.Join(s.o.workDir, fmt.Sprintf("serve-round%d", round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("round dir: %w", err)
	}
	setupStart := now()
	cl, err := bootCluster(s.reap, filepath.Join(s.o.binDir, "tpcserve"), dir)
	if err != nil {
		return fmt.Errorf("round %d boot: %w", round, err)
	}
	rec, elapsed, rs, err := serveRound(cl, s.w, s.o.seed, round)
	setupS := rs.setupDone.Sub(setupStart).Seconds()
	cl.stop()
	if err != nil {
		return fmt.Errorf("round %d: %w%s", round, err, logTail(dir))
	}
	if rec.failed > 0 {
		return fmt.Errorf("round %d: %d failed client transactions, first: %s", round, rec.failed, rec.failures[0])
	}
	s.rounds++
	s.setups = append(s.setups, setupS)
	s.restarts = append(s.restarts, rs.restarts...)
	s.perSecond = append(s.perSecond, float64(rec.committed)/elapsed.Seconds())
	s.p50 = append(s.p50, quantile(rec.latencies, 0.50))
	s.p99 = append(s.p99, quantile(rec.latencies, 0.99))
	s.total.merge(rec)
	fmt.Printf("round %d: %d txns (%d committed, %d aborted) in %.3fs, p50 %.3fms p99 %.3fms, setup %.3fs, restarts %s\n",
		round, rec.attempted(), rec.committed, rec.aborted, elapsed.Seconds(),
		s.p50[len(s.p50)-1], s.p99[len(s.p99)-1], setupS, fmtSeconds(rs.restarts))
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("remove round dir: %w", err)
	}
	return nil
}

// result reports medians over rounds. A round is the unit the workload
// repeats from empty journals, so its figures are comparable, and a
// median over rounds is not dragged by a slow stretch of a shared host
// the way pooled tail samples are (a slow round contributes most of a
// pooled p99).
func (s *serveStage) result() stageResult {
	t := s.total
	attempted := t.attempted()
	fmt.Printf("serve %s: attempted=%d committed=%d aborted=%d failed=%d rounds=%d latency_samples=%d (%d per round)\n",
		s.w.name, attempted, t.committed, t.aborted, t.failed, s.rounds, len(t.latencies), s.w.txnsPerRound)
	fmt.Printf("serve %s: abort_ratio=%.4f failed_ratio=%.4f\n", s.w.name,
		float64(t.aborted)/float64(attempted), float64(t.failed)/float64(attempted))
	return stageResult{
		attempted: attempted,
		failed:    t.failed,
		setupS:    median(s.setups),
		metrics: map[string]metric{
			"commit_per_s":   {median(s.perSecond), "1/s"},
			"latency_p50_ms": {median(s.p50), "ms"},
			"latency_p99_ms": {median(s.p99), "ms"},
			"restart_s":      {median(s.restarts), "s"},
		},
	}
}

// roundStats are the per-round timings besides the client latencies.
type roundStats struct {
	setupDone time.Time
	restarts  []float64
}

// serveRound funds the fresh cluster, drives the load, runs the
// correctness checks and measures a restart of every cohort.
func serveRound(cl *procCluster, w workloadSpec, seed int64, round int) (*recorder, time.Duration, roundStats, error) {
	var rs roundStats
	if err := fund(cl, w); err != nil {
		return nil, 0, rs, err
	}
	rs.setupDone = now()
	rec, elapsed, err := load(cl, w, seed, round)
	if err != nil {
		return nil, 0, rs, err
	}
	pre, err := settle(cl, w)
	if err != nil {
		return nil, 0, rs, err
	}
	for i := 1; i < nodes; i++ {
		d, err := cl.restart(i, pre[i-1])
		if err != nil {
			return nil, 0, rs, err
		}
		rs.restarts = append(rs.restarts, d.Seconds())
	}
	return rec, elapsed, rs, nil
}

// logTail appends the last lines of each node log to a failure message.
func logTail(dir string) string {
	var b strings.Builder
	for i := 1; i <= nodes; i++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("node%d.log", i)))
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) > 5 {
			lines = lines[len(lines)-5:]
		}
		fmt.Fprintf(&b, "\n  node%d.log: %s", i, strings.Join(lines, "\n    "))
	}
	return b.String()
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return strings.Join(parts, " ")
}
