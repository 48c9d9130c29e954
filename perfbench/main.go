// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed measurement budget and prints every metric by
// name with its unit; the last line of standard output is the JSON
// result object.
//
// Usage (normally through perfbench/run.sh, which builds the binaries):
//
//	perfbench -bin DIR -work DIR --workload serve-transfer|serve-hotspot \
//	          --seed N --seconds S --trace 0|1
//
// Every run has two stages. The serving stage boots fresh tpcserve
// clusters (1 coordinator + 3 cohorts) and drives the workload's traffic
// through the line protocol from a closed loop of two connections. The
// toolchain stage runs the verification pipeline in process: corpus
// elaboration, the corpus proof obligations on provesched, the
// monolithic ablation proofs, the 3PC model check and an explorer sweep.
// With --trace 1 the serving stage composes the same four nodes in this
// process instead, wraps the transport, handlers, codec registry and
// sync dispatcher handed to the engines, and reports per-layer metrics;
// the toolchain stage then times each layer's public calls one by one.
//
// See README.md in this directory for the workloads, metrics and caveats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
}

// minSteps is the fewest interleaved steps a run makes; the traced
// serving stage needs one untraced and one traced round.
const minSteps = 2

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: serve-transfer or serve-hotspot")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated client traffic")
	flag.IntVar(&o.seconds, "seconds", 30, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.binDir, "bin", "", "directory holding the tpcserve binary")
	flag.StringVar(&o.workDir, "work", "", "scratch directory for journals and logs")
	flag.Parse()
	o.trace = trace == 1

	if err := validate(o, trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	reap := newReaper()
	// A run killed by SIGINT/SIGTERM still reaps its clusters; a
	// SIGKILLed run takes them down through Pdeathsig (see reaper).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		reap.killAll()
		os.Exit(1)
	}()

	// A wedged cluster must not hold the run past its time limit.
	watchdog := time.AfterFunc(runLimit(o.seconds), func() { //lint:allow nowallclock watchdog over the whole live run
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		reap.killAll()
		os.Exit(1)
	})
	defer watchdog.Stop()

	res, err := run(o, reap)
	reap.killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
		res.Metrics = map[string]metric{}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runLimit is the wall time after which the watchdog ends a run: the
// budget plus room for the last step and teardown, capped at 170 s so a
// wedged run still exits within 180 s.
func runLimit(seconds int) time.Duration {
	limit := time.Duration(seconds)*time.Second + 90*time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	return limit
}

// validate rejects unusable flag combinations before anything starts.
func validate(o options, trace int) error {
	if _, ok := workloadByName(o.workload); !ok {
		return fmt.Errorf("unknown --workload %q (want %s)", o.workload, strings.Join(workloadNames(), " or "))
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d (want >= 1)", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d (want 0 or 1)", trace)
	}
	if o.binDir == "" || o.workDir == "" {
		return fmt.Errorf("-bin and -work are required (run through perfbench/run.sh)")
	}
	return nil
}

// run builds both stages and interleaves their steps until the budget
// is spent. Any error aborts the run: a failed check reports failure,
// never a number.
func run(o options, reap *reaper) (result, error) {
	w, _ := workloadByName(o.workload)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, fmt.Errorf("create work dir: %w", err)
	}
	printProvenance(o)
	var serve, tool stage
	var err error
	if o.trace {
		if serve, err = newTracedServeStage(o, w); err != nil {
			return result{}, err
		}
		if tool, err = newTracedToolStage(); err != nil {
			return result{}, err
		}
	} else {
		serve = newServeStage(o, w, reap)
		if tool, err = newToolStage(); err != nil {
			return result{}, err
		}
	}
	budget := time.Duration(o.seconds) * time.Second
	start := now()
	// Start another step only while it is expected to end within half a
	// step of the budget, so a run lasts about --seconds on average.
	for i := 0; i < minSteps || now().Sub(start)+now().Sub(start)/time.Duration(2*i) < budget; i++ {
		for _, st := range []stage{serve, tool} {
			if err := st.step(i); err != nil {
				return result{}, err
			}
		}
	}
	sv, tc := serve.result(), tool.result()
	res := result{
		Attempted: sv.attempted + tc.attempted,
		Failed:    sv.failed + tc.failed,
		Metrics:   map[string]metric{},
	}
	addAll(res.Metrics, sv.metrics, tc.metrics)
	want := endToEndMetrics()
	if o.trace {
		printMapping(res.Metrics)
		want = nil
		for _, l := range layerMetrics() {
			want = append(want, l.name)
		}
	} else {
		// setup_s covers both stages' set-up, so work moved out of the
		// measured loops into either set-up still shows.
		res.Metrics["setup_s"] = metric{sv.setupS + tc.setupS, "s"}
		printMetrics(res.Metrics)
	}
	if err := sameNames(res.Metrics, want); err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		return res, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// endToEndMetrics names every metric an untraced run reports.
func endToEndMetrics() []string {
	return []string{
		"setup_s", "commit_per_s", "latency_p50_ms", "latency_p99_ms", "restart_s",
		"prove_s", "prove_monolithic_s", "explore_runs_per_s",
	}
}

// sameNames requires the result to carry exactly the wanted metrics.
func sameNames(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("run produced %d metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("run produced no metric %s", n)
		}
	}
	return nil
}

// addAll merges metric maps into dst.
func addAll(dst map[string]metric, srcs ...map[string]metric) {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
}

// printProvenance records what the numbers were measured on.
func printProvenance(o options) {
	prov := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"connections":  connections,
		"cluster":      "1 coordinator + 3 cohorts",
		"tpcserve":     strings.Join(serveFlags(), " "),
		"flush_policy": flushPolicy,
		"loop":         "closed loop, one outstanding COMMIT per connection",
	}
	b, err := json.Marshal(prov)
	if err != nil {
		return
	}
	fmt.Printf("provenance %s\n", b)
}

// printMetrics prints one "metric name value unit" line per metric.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
