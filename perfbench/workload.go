package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"speccat/internal/workload"
)

// connections is the closed loop's client count. The line protocol
// allows one outstanding COMMIT per connection, so each connection is a
// caller that waits for its reply; two matches the 2-CPU host the
// benchmark was tuned on.
const connections = 2

// initial is every account's funded balance.
const initial = 100

// op is one client operation inside a transaction.
type op struct {
	verb string // READ, WRITE or INC
	key  string
	arg  string // WRITE value or INC delta
}

// txnClient runs one client transaction to its outcome: reads maps each
// read key (without its site prefix) to the value read.
type txnClient interface {
	exec(name string, ops []op) (reads map[string]string, committed bool, err error)
	close()
}

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name string
	// txnsPerRound is the fixed client-transaction count of one round;
	// every round starts from empty journals, so history-dependent costs
	// are compared at equal history length.
	txnsPerRound int
	// accounts lists every account key the workload funds.
	accounts func() []string
	// drive runs n client transactions on connection conn.
	drive func(c txnClient, conn, n int, rng *rand.Rand, rec *recorder)
}

// workloads returns the benchmark's traffic mixes.
func workloads() []workloadSpec {
	return []workloadSpec{
		{name: "serve-transfer", txnsPerRound: 2000, accounts: transferAccounts, drive: driveTransfer},
		{name: "serve-hotspot", txnsPerRound: 1000, accounts: hotAccounts, drive: driveHotspot},
	}
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// privateAccounts is each transfer connection's own account count.
const privateAccounts = 8

func privateAccount(conn, i int) string { return fmt.Sprintf("c%d.a%d", conn, i) }

func transferAccounts() []string {
	var out []string
	for c := 0; c < connections; c++ {
		for i := 0; i < privateAccounts; i++ {
			out = append(out, privateAccount(c, i))
		}
	}
	return out
}

// hotCount is the number of shared hot accounts of serve-hotspot.
const hotCount = 8

func hotAccount(i int) string { return fmt.Sprintf("hot%d", i) }

func hotAccounts() []string {
	out := make([]string, hotCount)
	for i := range out {
		out[i] = hotAccount(i)
	}
	return out
}

// driveTransfer runs tpcload-style read-then-write transfers of 10 over
// the connection's private accounts: a read transaction of both
// balances, then a write transaction of the moved amounts. No other
// connection touches these accounts, so nothing conflicts.
func driveTransfer(c txnClient, conn, n int, rng *rand.Rand, rec *recorder) {
	for i := 0; i < n; i++ {
		from := rng.Intn(privateAccounts)
		to := rng.Intn(privateAccounts - 1)
		if to >= from {
			to++
		}
		fk, tk := privateAccount(conn, from), privateAccount(conn, to)
		reads, ok := rec.run(c, fmt.Sprintf("c%d.t%d", conn, i), []op{{"READ", fk, ""}, {"READ", tk, ""}})
		if !ok || i+1 == n {
			continue
		}
		fb, err1 := strconv.Atoi(reads[fk])
		tb, err2 := strconv.Atoi(reads[tk])
		if err1 != nil || err2 != nil {
			rec.fail("transfer read %s=%q %s=%q is not a pair of balances", fk, reads[fk], tk, reads[tk])
			continue
		}
		i++
		rec.run(c, fmt.Sprintf("c%d.t%d", conn, i), []op{
			{"WRITE", fk, strconv.Itoa(fb - 10)},
			{"WRITE", tk, strconv.Itoa(tb + 10)},
		})
	}
}

// hotspotAuditShare is the fraction of serve-hotspot transactions that
// are read-all audits; the rest are paired increments.
const hotspotAuditShare = 0.2

// hotspotTheta is the zipfian skew of the hot-account choice.
const hotspotTheta = 0.99

// driveHotspot runs the contended mix: paired INC -10/+10 transfers
// between zipfian-chosen hot accounts (commutative, under IncMode) and
// read-all audits that READ every hot account. Reads conflict with
// increments, so abort-on-conflict drives lock conflicts, shard aborts
// and the WAL undo path. Every committed audit must sum to the funded
// total: that is the serializability check.
func driveHotspot(c txnClient, conn, n int, rng *rand.Rand, rec *recorder) {
	zipf := workload.NewZipf(rng, hotCount, hotspotTheta)
	want := hotCount * initial
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("c%d.t%d", conn, i)
		if rng.Float64() < hotspotAuditShare {
			ops := make([]op, hotCount)
			for k := range ops {
				ops[k] = op{"READ", hotAccount(k), ""}
			}
			reads, ok := rec.run(c, name, ops)
			if !ok {
				continue
			}
			if sum, err := sumBalances(reads, hotAccounts()); err != nil || sum != want {
				rec.fail("audit %s read total %d (err %v), want %d: not serializable", name, sum, err, want)
			}
			continue
		}
		from := zipf.Next()
		to := zipf.Next()
		for to == from {
			to = zipf.Next()
		}
		rec.run(c, name, []op{
			{"INC", hotAccount(from), "-10"},
			{"INC", hotAccount(to), "10"},
		})
	}
}

// sumBalances adds the integer balances of keys in vals; every key must
// be present.
func sumBalances(vals map[string]string, keys []string) (int, error) {
	sum := 0
	for _, k := range keys {
		v, ok := vals[k]
		if !ok {
			return 0, fmt.Errorf("account %s missing", k)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("account %s balance %q: %w", k, v, err)
		}
		sum += n
	}
	return sum, nil
}

// recorder collects one round's client-side outcomes.
type recorder struct {
	mu        sync.Mutex
	latencies []float64 // ms, BEGIN to DONE
	committed int
	aborted   int
	failed    int
	failures  []string
}

// run executes one client transaction, timing it and classifying the
// outcome; it reports the reads and whether the transaction committed.
func (r *recorder) run(c txnClient, name string, ops []op) (map[string]string, bool) {
	start := now()
	reads, committed, err := c.exec(name, ops)
	ms := msSince(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err != nil:
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", name, err))
		return nil, false
	case committed:
		r.committed++
	default:
		r.aborted++
	}
	r.latencies = append(r.latencies, ms)
	return reads, committed
}

// fail records a failed correctness check.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// attempted is the number of client transactions issued.
func (r *recorder) attempted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed + r.aborted + r.failed
}

// merge folds another round's recorder into r.
func (r *recorder) merge(o *recorder) {
	r.latencies = append(r.latencies, o.latencies...)
	r.committed += o.committed
	r.aborted += o.aborted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
}

// cluster is what the load generator needs from a running deployment.
type cluster interface {
	// dial opens one client connection to the coordinator.
	dial() (txnClient, error)
	// dumps returns each cohort's committed key/value state.
	dumps() ([]map[string]string, error)
}

// fund writes every account's initial balance in one transaction.
func fund(cl cluster, w workloadSpec) error {
	c, err := cl.dial()
	if err != nil {
		return err
	}
	defer c.close()
	accts := w.accounts()
	ops := make([]op, len(accts))
	for i, k := range accts {
		ops[i] = op{"WRITE", k, strconv.Itoa(initial)}
	}
	_, committed, err := c.exec("fund", ops)
	if err != nil {
		return fmt.Errorf("funding: %w", err)
	}
	if !committed {
		return fmt.Errorf("funding transaction aborted")
	}
	return nil
}

// load drives one round's fixed transaction count from the closed loop
// of connections and returns the round's recorder and load wall time.
func load(cl cluster, w workloadSpec, seed int64, round int) (*recorder, time.Duration, error) {
	rec := &recorder{}
	clients := make([]txnClient, connections)
	for i := range clients {
		c, err := cl.dial()
		if err != nil {
			for _, d := range clients[:i] {
				d.close()
			}
			return nil, 0, err
		}
		clients[i] = c
	}
	per := w.txnsPerRound / connections
	start := now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(conn int, c txnClient) {
			defer wg.Done()
			// Per-connection seeded draws: the same --seed gives the same
			// traffic, and each round draws fresh inputs from it.
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)*7919 + int64(conn)))
			w.drive(c, conn, per, rng, rec)
		}(i, c)
	}
	wg.Wait()
	elapsed := now().Sub(start)
	for _, c := range clients {
		c.close()
	}
	return rec, elapsed, nil
}

// auditDumps checks conservation over the cohorts' committed state: the
// workload's accounts must all be present, each on exactly one cohort,
// and sum to the funded total.
func auditDumps(w workloadSpec, dumps []map[string]string) error {
	merged := map[string]string{}
	for _, d := range dumps {
		for k, v := range d {
			if _, dup := merged[k]; dup {
				return fmt.Errorf("account %s held by two cohorts", k)
			}
			merged[k] = v
		}
	}
	accts := w.accounts()
	sum, err := sumBalances(merged, accts)
	if err != nil {
		return fmt.Errorf("conservation audit: %w", err)
	}
	if want := len(accts) * initial; sum != want {
		return fmt.Errorf("conservation audit: accounts total %d, want %d", sum, want)
	}
	return nil
}

// stripSite turns the coordinator's "site/key" read labels into keys.
func stripSite(reads map[string]string) map[string]string {
	out := make(map[string]string, len(reads))
	for k, v := range reads {
		if i := strings.LastIndexByte(k, '/'); i >= 0 {
			k = k[i+1:]
		}
		out[k] = v
	}
	return out
}

// quantile returns the q-quantile of xs (nearest rank; xs is sorted in
// place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile 0.5 over a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// now reads the wall clock; every measurement in the benchmark goes
// through it or msSince.
func now() time.Time {
	return time.Now() //lint:allow nowallclock the benchmark measures real elapsed time of live processes
}

// msSince is the elapsed wall time since t in milliseconds.
func msSince(t time.Time) float64 {
	return float64(now().Sub(t).Nanoseconds()) / 1e6
}

// sleep pauses the benchmark while it polls a process.
func sleep(d time.Duration) {
	time.Sleep(d) //lint:allow nowallclock polling a live process for readiness
}
