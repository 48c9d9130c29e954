package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"speccat/internal/kvstore"
	"speccat/internal/recovery"
	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/stable"
	"speccat/internal/tpc"
	"speccat/internal/txn"
	"speccat/internal/wal"
)

// inprocShards matches tpcserve's -shards.
const inprocShards = 4

// inprocCluster is the traced run's deployment: the four nodes tpcserve
// would run, composed in this process from the constructors tpcserve
// uses, on loopback sockets and real file journals. With a non-nil
// tracer the engines get wrapped transports and codec registries.
type inprocCluster struct {
	dir     string
	siteIDs []rt.NodeID
	nets    []*tcp.Net // index i hosts node i+1
	stores  []*stable.Store
	master  *txn.Master
	sites   []*txn.Site // index i is node i+2
	tr      *tracer
}

// bootInproc composes the cluster; tr may be nil for an untraced run.
func bootInproc(dir string, tr *tracer) (*inprocCluster, error) {
	addrs, err := reservePorts(nodes)
	if err != nil {
		return nil, err
	}
	clusterMap := map[rt.NodeID]string{}
	c := &inprocCluster{dir: dir, tr: tr}
	for i, a := range addrs {
		id := rt.NodeID(i + 1)
		clusterMap[id] = a
		if id != coordID {
			c.siteIDs = append(c.siteIDs, id)
		}
	}
	if tr != nil {
		tr.attach()
	}
	cfg := tpc.Config{Protocol: tpc.ThreePhase, ScopedParticipants: true}
	for i := 0; i < nodes; i++ {
		if err := c.bootNode(rt.NodeID(i+1), clusterMap, cfg); err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	return c, nil
}

// bootNode wires one node the way tpcserve's run does: group-committed
// file journal, codec with both engines' wire kinds, TCP transport, the
// sync dispatcher re-entering the event loop, then the engine.
func (c *inprocCluster) bootNode(id rt.NodeID, clusterMap map[rt.NodeID]string, cfg tpc.Config) error {
	store, err := stable.OpenFile(c.journal(id))
	if err != nil {
		return err
	}
	c.stores = append(c.stores, store)
	store.SetGroupCommit(true)
	codec := tcp.NewCodec()
	var reg rt.PayloadRegistry = codec
	if c.tr != nil {
		reg = timedRegistry{codec: codec, tr: c.tr}
	}
	if err := tpc.RegisterWire(reg); err != nil {
		return err
	}
	if err := txn.RegisterWire(reg); err != nil {
		return err
	}
	n, err := tcp.New(tcp.Options{
		Local: id, Cluster: clusterMap, Codec: codec,
		Tick: time.Millisecond, Delta: 400, Store: store,
		Backoff: tcp.DefaultBackoff(),
	})
	if err != nil {
		return err
	}
	c.nets = append(c.nets, n)
	if err := n.Start(); err != nil {
		return err
	}
	tr := c.tr
	store.SetSyncDispatch(func(fn func()) {
		if tr != nil {
			tr.dispatch()
		}
		n.After(id, 0, fn)
	})
	var tp rt.Transport = n
	if tr != nil {
		tp = &tracedTransport{Net: n, tr: tr}
	}
	tp.AddNode(id, nil)
	if id == coordID {
		c.master, err = txn.NewMasterOn(tp, coordID, c.siteIDs, cfg)
		return err
	}
	site, err := txn.NewShardedSiteOn(tp, id, coordID, c.siteIDs, cfg, inprocShards)
	if err != nil {
		return err
	}
	c.sites = append(c.sites, site)
	return nil
}

func (c *inprocCluster) journal(id rt.NodeID) string {
	return filepath.Join(c.dir, fmt.Sprintf("node%d.journal", id))
}

// close joins every event loop, then closes the journals. Closing twice
// is harmless: both Net.Close and Store.Close are idempotent.
func (c *inprocCluster) close() {
	for _, n := range c.nets {
		n.Close()
	}
	for _, s := range c.stores {
		_ = s.Close() // a close error only matters to the run that reopens the journal, which checks OpenFile
	}
}

func (c *inprocCluster) dial() (txnClient, error) { return inprocClient{c}, nil }

func (c *inprocCluster) dumps() ([]map[string]string, error) {
	var out []map[string]string
	for i, s := range c.sites {
		ch := make(chan recovery.State, 1)
		site := s
		c.nets[i+1].After(site.ID(), 0, func() { ch <- site.Store.Snapshot() })
		select {
		case st := <-ch:
			out = append(out, st)
		case <-time.After(ioTimeout): //lint:allow nowallclock watchdog over a live event loop
			return nil, fmt.Errorf("node %d: snapshot timed out", site.ID())
		}
	}
	return out, nil
}

// inprocClient submits transactions straight to the master's event loop.
type inprocClient struct{ c *inprocCluster }

func (ic inprocClient) close() {}

func (ic inprocClient) exec(name string, ops []op) (map[string]string, bool, error) {
	c := ic.c
	tops := make([]txn.Op, len(ops))
	for i, o := range ops {
		t := txn.Op{Site: txn.SiteFor(c.siteIDs, o.key), Key: o.key}
		switch o.verb {
		case "WRITE":
			t.Value, t.IsWrite = o.arg, true
		case "INC":
			t.Value, t.Class = o.arg, txn.ClassInc
		}
		tops[i] = t
	}
	resCh := make(chan *txn.Result, 1)
	errCh := make(chan error, 1)
	tr := c.tr
	scheduled := now()
	c.nets[0].After(coordID, 0, func() {
		start := scheduled
		if tr != nil {
			start = tr.submitted(scheduled)
		}
		errCh <- c.master.Submit(name, tops, func(r *txn.Result) {
			if tr != nil {
				tr.done(start)
			}
			resCh <- r
		})
	})
	select {
	case err := <-errCh:
		if err != nil {
			return nil, false, fmt.Errorf("submit %s: %w", name, err)
		}
	case <-time.After(ioTimeout): //lint:allow nowallclock watchdog over a live event loop
		return nil, false, fmt.Errorf("submit %s: dispatch timed out", name)
	}
	select {
	case r := <-resCh:
		return stripSite(r.Reads), r.Decision == tpc.DecisionCommit, nil
	case <-time.After(ioTimeout): //lint:allow nowallclock watchdog over a live event loop
		return nil, false, fmt.Errorf("commit %s: timed out", name)
	}
}

// counters are the cumulative transport and storage counts the traced
// round takes deltas of.
type counters struct {
	frames, dropped, reconnects uint64
	syncs, logWrites            int
	journalBytes                int64
}

func (c *inprocCluster) counters() (counters, error) {
	var k counters
	for _, n := range c.nets {
		for id := rt.NodeID(1); id <= nodes; id++ {
			s := n.Stats(id)
			k.frames += s.Sent
			k.dropped += s.Dropped
			k.reconnects += s.Reconnects
		}
	}
	for i, s := range c.stores {
		k.syncs += s.Syncs()
		_, logW := s.Writes()
		k.logWrites += logW
		fi, err := os.Stat(c.journal(rt.NodeID(i + 1)))
		if err != nil {
			return k, fmt.Errorf("journal size: %w", err)
		}
		k.journalBytes += fi.Size()
	}
	return k, nil
}

func (k counters) minus(o counters) counters {
	return counters{
		frames: k.frames - o.frames, dropped: k.dropped - o.dropped, reconnects: k.reconnects - o.reconnects,
		syncs: k.syncs - o.syncs, logWrites: k.logWrites - o.logWrites, journalBytes: k.journalBytes - o.journalBytes,
	}
}

// settle waits until the cohorts' committed state stops changing (the
// last commit round's deliveries land after the client sees DONE) and
// the conservation audit passes, and returns that state.
func settle(cl cluster, w workloadSpec) ([]map[string]string, error) {
	end := now().Add(10 * time.Second)
	var last error
	for now().Before(end) {
		a, err := cl.dumps()
		if err != nil {
			return nil, err
		}
		if last = auditDumps(w, a); last == nil {
			sleep(20 * time.Millisecond)
			b, err := cl.dumps()
			if err != nil {
				return nil, err
			}
			if sameStates(a, b) {
				return b, nil
			}
		}
		sleep(20 * time.Millisecond)
	}
	if last == nil {
		last = fmt.Errorf("state kept changing")
	}
	return nil, fmt.Errorf("cohort state never settled: %w", last)
}

func sameStates(a, b []map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameState(a[i], b[i]) {
			return false
		}
	}
	return true
}

// journalProbe times the end-of-run journal work a restart or an abort
// pays: OpenFile replay, a full WAL decode, and a Begin/Inc/Abort on a
// reopened sharded store over a copy of the journal.
type journalProbe struct {
	replayMS, walDecodeMS, abortMS float64
}

// probeJournal measures one cohort's closed journal; key is an account
// the cohort holds.
func probeJournal(path, scratch, key string) (journalProbe, error) {
	var p journalProbe
	start := now()
	st, err := stable.OpenFile(path)
	if err != nil {
		return p, fmt.Errorf("replay: %w", err)
	}
	p.replayMS = msSince(start)
	start = now()
	recs, err := wal.Records(st)
	p.walDecodeMS = msSince(start)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, fmt.Errorf("wal decode: %w", err)
	}
	if len(recs) == 0 {
		return p, fmt.Errorf("wal decode: journal %s holds no WAL records", path)
	}
	if err := copyFile(path, scratch); err != nil {
		return p, err
	}
	cp, err := stable.OpenFile(scratch)
	if err != nil {
		return p, fmt.Errorf("reopen copy: %w", err)
	}
	defer cp.Close()        // a scratch copy: nothing reads it after the probe
	cp.SetGroupCommit(true) // as on the serving path: no fsync per record
	sh, err := kvstore.OpenShards(cp, inprocShards)
	if err != nil {
		return p, fmt.Errorf("open shards: %w", err)
	}
	const probeTxn = "perfbench.abort-probe"
	start = now()
	if err := sh.Begin(probeTxn); err != nil {
		return p, fmt.Errorf("abort probe: %w", err)
	}
	if err := sh.Increment(probeTxn, key, "1"); err != nil {
		return p, fmt.Errorf("abort probe: %w", err)
	}
	if err := sh.Abort(probeTxn); err != nil {
		return p, fmt.Errorf("abort probe: %w", err)
	}
	p.abortMS = msSince(start)
	return p, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("copy journal: %w", err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("copy journal: %w", err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy journal: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("copy journal: %w", err)
	}
	return nil
}
