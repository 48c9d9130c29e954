// Package locking implements the strict two-phase locking protocol
// (building block 4, Section 3.5.1): shared read locks, an exclusive
// write lock, lock upgrades, FIFO wait queues, deadlock detection on the
// waits-for graph, and release of all locks at transaction end
// (strictness). Serializability of the resulting schedules is checked in
// tests via conflict-graph acyclicity.
//
// Beyond the paper's read/write pair, the manager grants
// commutativity-derived modes (IncMode, AppendMode, SetInsMode): two
// operations of the same commuting class may hold the same object
// concurrently because either execution order yields an equivalent state
// ("Limits of Commutativity on Abstract Data Types"). The compatibility
// matrix is not asserted by hand — it is pinned against the
// prover-discharged commutativity spec comm.sw, both statically
// (speccatlint -only comm, rule comm-matrix) and at test time
// (TestMatrixMatchesDischargedSpec).
package locking

import (
	_ "embed"
	"errors"
	"fmt"
	"sort"
)

// Mode is a lock mode.
type Mode int

// Lock modes. Read and Write are the classic shared/exclusive pair; the
// remaining modes each license exactly one class of commuting updates.
// The //comm:mode directives bind each mode to its commutativity class in
// comm.sw for the commcheck layer.
const (
	Read       Mode = iota + 1 //comm:mode read
	Write                      //comm:mode write
	IncMode                    //comm:mode inc
	AppendMode                 //comm:mode append
	SetInsMode                 //comm:mode setins
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	case IncMode:
		return "inc"
	case AppendMode:
		return "append"
	case SetInsMode:
		return "setins"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CommSpec is the commutativity specification the compatibility matrix is
// derived from. Each compatible pair of modes corresponds to a Safe<a><b>
// theorem in it, discharged by the resolution prover from the generic
// Swap axiom plus that pair's Commutes fact; the absence of a theorem is
// the absence of a commutativity argument, and the pair conflicts.
//
//go:embed comm.sw
var CommSpec string

// compat is the commutativity-derived compatibility matrix: compat[a][b]
// reports whether a holder in mode a admits a second holder in mode b.
// Missing entries mean incompatible. Every true entry must be backed by a
// discharged Safe theorem in comm.sw and every absent pair by the absence
// of one — commcheck (rule comm-matrix) and the spec cross-check test
// both fail on any divergence.
//
//comm:matrix comm.sw
//lint:allow noglobalstate immutable lookup table pinned against comm.sw
var compat = map[Mode]map[Mode]bool{
	Read:       {Read: true},
	Write:      {},
	IncMode:    {IncMode: true},
	AppendMode: {AppendMode: true},
	SetInsMode: {SetInsMode: true},
}

// Compatible reports whether modes a and b may be held on one object by
// two different transactions at once. The relation is symmetric.
func Compatible(a, b Mode) bool { return compat[a][b] }

// Covers reports whether holding h already satisfies a request for r
// without regranting: the exact mode, or Write, which is exclusive and
// so dominates every other mode's rights.
func Covers(h, r Mode) bool { return h == r || h == Write }

// Join is the least mode granting the rights of both a and b (zero means
// "not held"). Distinct non-write modes have no common weaker upper
// bound, so any mixed combination escalates to Write — the upgrade path.
func Join(a, b Mode) Mode {
	switch {
	case a == 0:
		return b
	case b == 0 || a == b:
		return a
	default:
		return Write
	}
}

// Modes lists every mode, in declaration order.
func Modes() []Mode { return []Mode{Read, Write, IncMode, AppendMode, SetInsMode} }

// Sentinel errors.
var (
	// ErrDeadlock is returned when granting the request would close a
	// waits-for cycle; the requester should abort.
	ErrDeadlock = errors.New("locking: deadlock")
	// ErrNotHeld is returned when releasing a lock that is not held.
	ErrNotHeld = errors.New("locking: lock not held")
)

// request is a queued lock request.
type request struct {
	txn  string
	mode Mode
	// grant is invoked when the lock is granted (nil for synchronous use).
	grant func()
}

// object tracks one lockable item.
type object struct {
	// holders maps each holding transaction to its granted mode. The
	// paper's "read counter + 1-bit write flag" generalizes to this map
	// once commuting modes can share an object: read holders are the
	// entries in Read mode, the (single possible) writer the entry in
	// Write mode.
	holders map[string]Mode
	queue   []request
}

// Manager is a strict 2PL lock manager for one site. The zero value is
// not usable; call NewManager.
type Manager struct {
	objects map[string]*object
	// held[txn] is the set of objects the transaction holds (for release).
	held map[string]map[string]Mode
	// waits[txn] is the transaction's pending request object, if any.
	waits map[string]string
	// stats
	grants, blocks, deadlocks int
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		objects: map[string]*object{},
		held:    map[string]map[string]Mode{},
		waits:   map[string]string{},
	}
}

func (m *Manager) obj(key string) *object {
	o, ok := m.objects[key]
	if !ok {
		o = &object{holders: map[string]Mode{}}
		m.objects[key] = o
	}
	return o
}

// Holds reports the mode in which txn holds key (0 if none).
func (m *Manager) Holds(txn, key string) Mode {
	return m.held[txn][key]
}

// compatible reports whether txn may acquire key in mode right now: the
// mode it would end up holding (its current mode joined with the request)
// must be compatible with every other holder.
func (m *Manager) compatible(o *object, txn string, mode Mode) bool {
	eff := Join(o.holders[txn], mode)
	for h, hm := range o.holders {
		if h != txn && !Compatible(hm, eff) {
			return false
		}
	}
	return true
}

// Acquire requests key in mode for txn. If the lock is free it is granted
// immediately and Acquire returns (true, nil). If it conflicts, the
// request queues FIFO and Acquire returns (false, nil); onGrant fires when
// the lock is later granted. A request that would deadlock returns
// (false, ErrDeadlock) and is not queued.
func (m *Manager) Acquire(txn, key string, mode Mode, onGrant func()) (bool, error) {
	o := m.obj(key)
	if cur := m.held[txn][key]; cur != 0 && Covers(cur, mode) {
		m.grants++
		if onGrant != nil {
			onGrant()
		}
		return true, nil // already held at sufficient strength
	}
	if m.compatible(o, txn, mode) && len(o.queue) == 0 {
		m.grant(o, txn, key, mode)
		if onGrant != nil {
			onGrant()
		}
		return true, nil
	}
	// Would block: check the waits-for graph for a cycle first.
	if m.wouldDeadlock(txn, o) {
		m.deadlocks++
		return false, fmt.Errorf("%w: txn %s on %s/%s", ErrDeadlock, txn, key, mode)
	}
	m.blocks++
	o.queue = append(o.queue, request{txn: txn, mode: mode, grant: onGrant})
	m.waits[txn] = key
	return false, nil
}

func (m *Manager) grant(o *object, txn, key string, mode Mode) {
	m.grants++
	eff := Join(o.holders[txn], mode)
	o.holders[txn] = eff
	if m.held[txn] == nil {
		m.held[txn] = map[string]Mode{}
	}
	m.held[txn][key] = eff
	delete(m.waits, txn)
}

// wouldDeadlock checks whether txn waiting on o closes a cycle in the
// waits-for graph (txn → holders of o → objects they wait for → ...).
func (m *Manager) wouldDeadlock(txn string, o *object) bool {
	// Build holder set of o, excluding txn itself: a transaction's own
	// lock never blocks its upgrade request, so the waits-for edges
	// run only to the other holders (otherwise every upgrade behind a
	// co-reader would be misreported as a self-deadlock).
	var start []string
	for _, h := range m.holdersOf(o) {
		if h != txn {
			start = append(start, h)
		}
	}
	seen := map[string]bool{}
	stack := append([]string{}, start...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txn {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		// cur waits on some object; its holders are next.
		if key, waiting := m.waits[cur]; waiting {
			stack = append(stack, m.holdersOf(m.obj(key))...)
		}
	}
	return false
}

func (m *Manager) holdersOf(o *object) []string {
	out := make([]string, 0, len(o.holders))
	for h := range o.holders {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// ReleaseAll releases every lock held by txn (strict 2PL: all locks are
// held to transaction end, then released together), granting queued
// compatible requests in FIFO order.
//
// The transaction's own queued requests are purged BEFORE any queue is
// pumped: a transaction can simultaneously hold a key and be queued on it
// (a mixed-mode request that had to wait behind another holder), and
// pumping first could grant that request the instant the holder entry is
// removed — a stale grant to a transaction that is releasing everything,
// re-creating its held entry after deletion and leaking the lock forever.
func (m *Manager) ReleaseAll(txn string) {
	// Sorted key iteration: pumping grants queued requests, whose callbacks
	// re-enter the engines, so the grant order must be identical across
	// replays (map-order pumping would leak nondeterminism into the
	// deterministic simulator's traces).
	queued := make([]string, 0, len(m.objects))
	for key := range m.objects {
		queued = append(queued, key)
	}
	sort.Strings(queued)
	for _, key := range queued {
		o := m.objects[key]
		var rest []request
		for _, r := range o.queue {
			if r.txn != txn {
				rest = append(rest, r)
			}
		}
		if len(rest) != len(o.queue) {
			o.queue = rest
			// The shorter queue may unblock a head request behind the purged
			// one even on keys txn never held.
			m.pump(o, key)
		}
	}
	keys := make([]string, 0, len(m.held[txn]))
	for key := range m.held[txn] {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	delete(m.held, txn)
	delete(m.waits, txn)
	for _, key := range keys {
		o := m.obj(key)
		delete(o.holders, txn)
		m.pump(o, key)
	}
}

// Release drops one lock early (non-strict use; tests of 2PL violations).
func (m *Manager) Release(txn, key string) error {
	o := m.obj(key)
	_, held := m.held[txn][key]
	if !held {
		return fmt.Errorf("%w: %s on %s", ErrNotHeld, txn, key)
	}
	delete(m.held[txn], key)
	delete(o.holders, txn)
	m.pump(o, key)
	return nil
}

// pump grants queued requests that are now compatible, FIFO.
func (m *Manager) pump(o *object, key string) {
	for len(o.queue) > 0 {
		head := o.queue[0]
		if !m.compatible(o, head.txn, head.mode) {
			return
		}
		o.queue = o.queue[1:]
		m.grant(o, head.txn, key, head.mode)
		if head.grant != nil {
			head.grant()
		}
	}
}

// QueueLen reports the number of waiting requests on key.
func (m *Manager) QueueLen(key string) int {
	o, ok := m.objects[key]
	if !ok {
		return 0
	}
	return len(o.queue)
}

// Stats reports grant/block/deadlock counters.
func (m *Manager) Stats() (grants, blocks, deadlocks int) {
	return m.grants, m.blocks, m.deadlocks
}

// Holders reports the current holders of key, sorted.
func (m *Manager) Holders(key string) []string {
	o, ok := m.objects[key]
	if !ok {
		return nil
	}
	return m.holdersOf(o)
}
