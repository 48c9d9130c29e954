package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// nodes is the cluster size: node 1 coordinates, 2..4 are cohorts.
const nodes = 4

// serveFlags are the tpcserve flags every serving run uses, on every
// node, besides the per-node identity, address and journal flags.
func serveFlags() []string {
	return []string{"-protocol", "3pc", "-shards", "4", "-group", "-scoped", "-tick", "1ms", "-delta", "400"}
}

// flushPolicy states the durability setting both sides of every
// comparison share.
const flushPolicy = "file journal per node on a fresh directory; group-committed fsync at the 3PC sync points (-group), journal fsync on close"

// ioTimeout bounds every client-port round trip, so a wedged cluster
// fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

// reaper tracks every tpcserve process perfbench starts so each one is
// killed and waited for, whatever path the run takes.
type reaper struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
}

func newReaper() *reaper { return &reaper{procs: map[*exec.Cmd]struct{}{}} }

// start launches cmd under the reaper. Pdeathsig kills the child if the
// benchmark process itself dies without reaching killAll.
func (r *reaper) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	r.procs[cmd] = struct{}{}
	return nil
}

// kill SIGKILLs one process and waits for it.
func (r *reaper) kill(cmd *exec.Cmd) {
	r.mu.Lock()
	_, live := r.procs[cmd]
	delete(r.procs, cmd)
	r.mu.Unlock()
	if !live {
		return
	}
	_ = cmd.Process.Kill() // already-exited processes are reaped by Wait below
	_ = cmd.Wait()         // exit status of a killed process carries no information
}

// stop asks one process to shut down (SIGTERM, so its journal closes
// cleanly) and falls back to SIGKILL.
func (r *reaper) stop(cmd *exec.Cmd) {
	r.mu.Lock()
	_, live := r.procs[cmd]
	delete(r.procs, cmd)
	r.mu.Unlock()
	if !live {
		return
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the status of a stopped server carries no information
		close(done)
	}()
	_ = cmd.Process.Signal(syscall.SIGTERM) // a process that already exited is reaped by Wait
	select {
	case <-done:
	case <-time.After(5 * time.Second): //lint:allow nowallclock shutdown watchdog over a live process
		_ = cmd.Process.Kill() // the Wait goroutine reaps it
		<-done
	}
}

// killAll kills and reaps everything still running.
func (r *reaper) killAll() {
	r.mu.Lock()
	var all []*exec.Cmd
	for c := range r.procs {
		all = append(all, c)
	}
	r.mu.Unlock()
	for _, c := range all {
		r.kill(c)
	}
}

// reservePorts binds n ephemeral loopback listeners, records their
// addresses and releases them for the servers to bind.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// procCluster is one tpcserve deployment running as real processes.
type procCluster struct {
	reap   *reaper
	bin    string
	dir    string
	client []string
	args   [][]string
	procs  []*exec.Cmd
	logs   []*os.File
}

// bootCluster starts the four nodes on fresh journals under dir and
// waits until every client port accepts connections.
func bootCluster(reap *reaper, bin, dir string) (*procCluster, error) {
	addrs, err := reservePorts(2 * nodes)
	if err != nil {
		return nil, err
	}
	wire, client := addrs[:nodes], addrs[nodes:]
	parts := make([]string, nodes)
	for i := range parts {
		parts[i] = fmt.Sprintf("%d=%s", i+1, wire[i])
	}
	c := &procCluster{reap: reap, bin: bin, dir: dir, client: client,
		args: make([][]string, nodes), procs: make([]*exec.Cmd, nodes), logs: make([]*os.File, nodes)}
	for i := 0; i < nodes; i++ {
		c.args[i] = append([]string{
			"-node", strconv.Itoa(i + 1),
			"-cluster", strings.Join(parts, ","),
			"-client", client[i],
			"-data", filepath.Join(dir, fmt.Sprintf("node%d", i+1)),
		}, serveFlags()...)
		if err := c.startNode(i); err != nil {
			c.stop()
			return nil, err
		}
	}
	for i := 0; i < nodes; i++ {
		if err := waitAccept(client[i], 15*time.Second); err != nil {
			c.stop()
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	return c, nil
}

// startNode execs node i (0-based) with its fixed arguments.
func (c *procCluster) startNode(i int) error {
	if c.logs[i] == nil {
		f, err := os.Create(filepath.Join(c.dir, fmt.Sprintf("node%d.log", i+1)))
		if err != nil {
			return fmt.Errorf("node log: %w", err)
		}
		c.logs[i] = f
	}
	cmd := exec.Command(c.bin, c.args[i]...)
	cmd.Stdout = c.logs[i]
	cmd.Stderr = c.logs[i]
	if err := c.reap.start(cmd); err != nil {
		return fmt.Errorf("start node %d: %w", i+1, err)
	}
	c.procs[i] = cmd
	return nil
}

// stop shuts every node down and closes the logs.
func (c *procCluster) stop() {
	for _, p := range c.procs {
		if p != nil {
			c.reap.stop(p)
		}
	}
	for _, f := range c.logs {
		if f != nil {
			f.Close()
		}
	}
}

// waitAccept polls addr until a TCP connect succeeds.
func waitAccept(addr string, limit time.Duration) error {
	end := now().Add(limit)
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if now().After(end) {
			return fmt.Errorf("%s never accepted: %w", addr, err)
		}
		sleep(time.Millisecond)
	}
}

func (c *procCluster) dial() (txnClient, error) { return dialLine(c.client[0]) }

func (c *procCluster) dumps() ([]map[string]string, error) {
	var out []map[string]string
	for i := 1; i < nodes; i++ {
		d, err := dumpNode(c.client[i])
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// restart SIGKILLs cohort i (0-based node index), restarts it on its
// journal and returns the time from the kill until its DUMP equals want.
func (c *procCluster) restart(i int, want map[string]string) (time.Duration, error) {
	start := now()
	c.reap.kill(c.procs[i])
	if err := c.startNode(i); err != nil {
		return 0, err
	}
	end := start.Add(20 * time.Second)
	var last error
	for now().Before(end) {
		got, err := dumpNode(c.client[i])
		if err == nil && sameState(got, want) {
			return now().Sub(start), nil
		}
		last = err
		if err == nil {
			last = fmt.Errorf("DUMP has %d keys, pre-kill DUMP had %d or values differ", len(got), len(want))
		}
		sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("node %d after restart never matched its pre-kill DUMP: %w", i+1, last)
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// lineClient speaks the tpcserve client-port line protocol.
type lineClient struct {
	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer
}

func dialLine(addr string) (*lineClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &lineClient{conn: conn, r: sc, w: bufio.NewWriter(conn)}, nil
}

func (c *lineClient) close() { c.conn.Close() }

// round sends one command line and returns the one reply line; an ERR
// reply is an error.
func (c *lineClient) round(line string) (string, error) {
	if err := c.conn.SetDeadline(now().Add(ioTimeout)); err != nil {
		return "", fmt.Errorf("set deadline: %w", err)
	}
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return "", fmt.Errorf("send %q: %w", line, err)
	}
	if err := c.w.Flush(); err != nil {
		return "", fmt.Errorf("send %q: %w", line, err)
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", fmt.Errorf("reply to %q: %w", line, err)
		}
		return "", fmt.Errorf("reply to %q: connection closed", line)
	}
	resp := c.r.Text()
	if strings.HasPrefix(resp, "ERR") {
		return "", fmt.Errorf("server replied %q to %q", resp, line)
	}
	return resp, nil
}

// exec runs BEGIN, the operations and COMMIT, and parses the DONE line.
func (c *lineClient) exec(name string, ops []op) (map[string]string, bool, error) {
	if _, err := c.round("BEGIN " + name); err != nil {
		return nil, false, err
	}
	for _, o := range ops {
		line := o.verb + " " + name + " " + o.key
		if o.verb != "READ" {
			line += " " + o.arg
		}
		if _, err := c.round(line); err != nil {
			return nil, false, err
		}
	}
	done, err := c.round("COMMIT " + name)
	if err != nil {
		return nil, false, err
	}
	f := strings.Fields(done)
	if len(f) < 3 || f[0] != "DONE" || f[1] != name || (f[2] != "COMMIT" && f[2] != "ABORT") {
		return nil, false, fmt.Errorf("bad COMMIT reply %q", done)
	}
	reads := map[string]string{}
	for _, kv := range f[3:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, false, fmt.Errorf("bad read %q in %q", kv, done)
		}
		reads[k] = v
	}
	return stripSite(reads), f[2] == "COMMIT", nil
}

// dumpNode sends DUMP to a node's client port and returns its committed
// key/value state.
func dumpNode(addr string) (map[string]string, error) {
	c, err := dialLine(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.conn.SetDeadline(now().Add(ioTimeout)); err != nil {
		return nil, fmt.Errorf("set deadline: %w", err)
	}
	if _, err := c.w.WriteString("DUMP\n"); err != nil {
		return nil, fmt.Errorf("send DUMP: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, fmt.Errorf("send DUMP: %w", err)
	}
	state := map[string]string{}
	for c.r.Scan() {
		line := c.r.Text()
		if line == "END" {
			return state, nil
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "KV" {
			return nil, fmt.Errorf("bad DUMP line %q", line)
		}
		state[f[1]] = f[2]
	}
	if err := c.r.Err(); err != nil {
		return nil, fmt.Errorf("DUMP from %s: %w", addr, err)
	}
	return nil, fmt.Errorf("DUMP from %s ended without END", addr)
}
