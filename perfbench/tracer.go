package main

import (
	"reflect"
	"strings"
	"sync"
	"time"

	"speccat/internal/rt"
	"speccat/internal/rt/tcp"
	"speccat/internal/stable"
	"speccat/internal/tpc"
)

// coordID is the coordinator node; cohorts are 2..nodes.
const coordID rt.NodeID = 1

// tracer collects per-layer measurements from the wrappers around what
// the engines are handed: their rt.Transport, their handlers, the wire
// codec registry and the stable store's sync dispatcher. All of it is
// recorded from outside the engines; no engine code changes.
type tracer struct {
	mu sync.Mutex
	// recording gates samples and counters to the measured load; the
	// send queues and round progress are tracked regardless, so traffic
	// still in flight when recording starts is matched correctly.
	recording bool

	// inflight queues each (from, to) pair's unmatched sends in order.
	// The transport delivers one sender's frames to one receiver in send
	// order, so the head of the queue is the send a delivery belongs to.
	inflight map[[2]rt.NodeID][]sentFrame
	// rounds tracks the coordinator's 3PC rounds per transaction.
	rounds map[string]*txnRounds

	hopMS         []float64
	hopMismatches int
	encodeUS      []float64
	decodeUS      []float64
	frameBytes    int64
	frameOverhead int
	tpcMsgs       int
	roundMS       [3][]float64 // prepare, precommit, commit
	dispatched    int
	submitWaitMS  []float64
	commitMS      []float64
}

// sentFrame is one unmatched send.
type sentFrame struct {
	kind string
	at   time.Time
}

// txnRounds is one transaction's per-round progress: sends started the
// round, replies (or, for the commit round, deliveries) close it.
type txnRounds struct {
	participants int
	start        [3]time.Time
	got          [3]int
}

// 3PC round indices.
const (
	roundPrepare = iota
	roundPrecommit
	roundCommit
)

// roundOpenedBy maps a coordinator send kind to the round it opens.
func roundOpenedBy(kind string) (int, bool) {
	switch kind {
	case tpc.KindCommitReq:
		return roundPrepare, true
	case tpc.KindPrepare:
		return roundPrecommit, true
	case tpc.KindCommit:
		return roundCommit, true
	}
	return 0, false
}

// roundClosedBy maps a delivered kind to the round it answers: votes and
// acks arrive at the coordinator, commits at the cohorts.
func roundClosedBy(kind string, to rt.NodeID) (int, bool) {
	switch {
	case (kind == tpc.KindVoteYes || kind == tpc.KindVoteNo) && to == coordID:
		return roundPrepare, true
	case kind == tpc.KindAck && to == coordID:
		return roundPrecommit, true
	case kind == tpc.KindCommit && to != coordID:
		return roundCommit, true
	}
	return 0, false
}

func newTracer() (*tracer, error) {
	overhead, err := frameOverhead()
	if err != nil {
		return nil, err
	}
	return &tracer{frameOverhead: overhead}, nil
}

// frameOverhead measures the wire frame's fixed bytes (length prefix and
// header) by framing a known payload under a known kind.
func frameOverhead() (int, error) {
	c := tcp.NewCodec()
	const kind, payload = "k", "pp"
	err := c.Register(kind,
		func(any) ([]byte, error) { return []byte(payload), nil },
		func([]byte) (any, error) { return nil, nil })
	if err != nil {
		return 0, err
	}
	f, err := tcp.EncodeFrame(c, rt.Message{Kind: kind})
	if err != nil {
		return 0, err
	}
	return len(f) - len(kind) - len(payload), nil
}

// attach forgets the previous cluster's in-flight sends and rounds;
// each traced round composes a fresh cluster over the same node IDs.
func (t *tracer) attach() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inflight = map[[2]rt.NodeID][]sentFrame{}
	t.rounds = map[string]*txnRounds{}
}

// record turns sample and counter collection on or off.
func (t *tracer) record(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recording = on
}

// txnOf reads the transaction name every engine payload carries.
func txnOf(payload any) string {
	v := reflect.ValueOf(payload)
	if v.Kind() != reflect.Struct {
		return ""
	}
	f := v.FieldByName("Txn")
	if !f.IsValid() || f.Kind() != reflect.String {
		return ""
	}
	return f.String()
}

// sent records a Send call before the transport takes it.
func (t *tracer) sent(from, to rt.NodeID, kind string, payload any) {
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]rt.NodeID{from, to}
	t.inflight[key] = append(t.inflight[key], sentFrame{kind, at})
	if t.recording && strings.HasPrefix(kind, "tpc.") {
		t.tpcMsgs++
	}
	if from != coordID {
		return
	}
	r, ok := roundOpenedBy(kind)
	if !ok {
		return
	}
	name := txnOf(payload)
	tr := t.rounds[name]
	if tr == nil {
		tr = &txnRounds{}
		t.rounds[name] = tr
	}
	if r == roundPrepare {
		tr.participants++
	}
	if tr.start[r].IsZero() {
		tr.start[r] = at
	}
}

// unsent withdraws the last recorded send after the transport refused it.
func (t *tracer) unsent(from, to rt.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]rt.NodeID{from, to}
	if q := t.inflight[key]; len(q) > 0 {
		t.inflight[key] = q[:len(q)-1]
	}
}

// delivered records a handler entry.
func (t *tracer) delivered(m rt.Message) {
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]rt.NodeID{m.From, m.To}
	if q := t.inflight[key]; len(q) > 0 {
		head := q[0]
		t.inflight[key] = q[1:]
		switch {
		case head.kind != m.Kind:
			t.hopMismatches++
		case t.recording:
			t.hopMS = append(t.hopMS, float64(at.Sub(head.at).Nanoseconds())/1e6)
		}
	} else {
		t.hopMismatches++
	}
	r, ok := roundClosedBy(m.Kind, m.To)
	if !ok {
		return
	}
	name := txnOf(m.Payload)
	tr := t.rounds[name]
	if tr == nil || tr.start[r].IsZero() {
		return
	}
	tr.got[r]++
	if tr.got[r] != tr.participants {
		return
	}
	if t.recording {
		t.roundMS[r] = append(t.roundMS[r], float64(at.Sub(tr.start[r]).Nanoseconds())/1e6)
	}
	if r == roundCommit {
		delete(t.rounds, name)
	}
}

// wrap times every delivery into an engine handler.
func (t *tracer) wrap(h rt.Handler) rt.Handler {
	if h == nil {
		return nil
	}
	return func(m rt.Message) {
		t.delivered(m)
		h(m)
	}
}

func (t *tracer) encoded(d time.Duration, kind string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return
	}
	t.encodeUS = append(t.encodeUS, float64(d.Nanoseconds())/1e3)
	t.frameBytes += int64(t.frameOverhead + len(kind) + n)
}

func (t *tracer) decoded(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return
	}
	t.decodeUS = append(t.decodeUS, float64(d.Nanoseconds())/1e3)
}

func (t *tracer) dispatch() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recording {
		t.dispatched++
	}
}

// submitted records the event-loop queueing before Submit ran and
// returns the time Submit started.
func (t *tracer) submitted(scheduled time.Time) time.Time {
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return at
	}
	t.submitWaitMS = append(t.submitWaitMS, float64(at.Sub(scheduled).Nanoseconds())/1e6)
	return at
}

// done records Submit-to-onDone time.
func (t *tracer) done(start time.Time) {
	ms := msSince(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return
	}
	t.commitMS = append(t.commitMS, ms)
}

// tracedTransport is the rt.Transport the engines get in a traced run:
// the node's tcp.Net with Send, Broadcast and handler installation
// observed by the tracer.
type tracedTransport struct {
	*tcp.Net
	tr *tracer
}

func (n *tracedTransport) Send(from, to rt.NodeID, kind string, payload any) error {
	n.tr.sent(from, to, kind, payload)
	if err := n.Net.Send(from, to, kind, payload); err != nil {
		n.tr.unsent(from, to)
		return err
	}
	return nil
}

// Broadcast goes through Send so each frame is observed.
func (n *tracedTransport) Broadcast(from rt.NodeID, kind string, payload any) error {
	for _, id := range n.Nodes() {
		if err := n.Send(from, id, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

func (n *tracedTransport) AddNode(id rt.NodeID, h rt.Handler) *stable.Store {
	return n.Net.AddNode(id, n.tr.wrap(h))
}

func (n *tracedTransport) SetHandler(id rt.NodeID, h rt.Handler) error {
	return n.Net.SetHandler(id, n.tr.wrap(h))
}

// timedRegistry is the codec registry the engines register their wire
// kinds with in a traced run: every encoder and decoder is timed.
type timedRegistry struct {
	codec *tcp.Codec
	tr    *tracer
}

func (r timedRegistry) Register(kind string, enc func(any) ([]byte, error), dec func([]byte) (any, error)) error {
	tr := r.tr
	return r.codec.Register(kind,
		func(p any) ([]byte, error) {
			start := now()
			b, err := enc(p)
			tr.encoded(now().Sub(start), kind, len(b))
			return b, err
		},
		func(data []byte) (any, error) {
			start := now()
			v, err := dec(data)
			tr.decoded(now().Sub(start))
			return v, err
		})
}
