package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// lockState is the lock information at one program point, tracked per
// transaction expression (the rendered first argument of the manager
// calls, e.g. "txn" — syntactic identity is what one function's call
// sites share).
type lockState struct {
	// acquired maps "txn\x00key" to the acquire position — MAY analysis
	// (union at joins): a lock held on any path into a return is a leak.
	acquired map[string]token.Pos
	// released maps a transaction to its release position — MUST analysis
	// (intersection): growing is only convicted after a release that
	// happened on every path.
	released map[string]token.Pos
	// durable marks transactions whose wal decision record was written —
	// MUST analysis, consumed by the release-before-durable rule.
	durable map[string]bool
	// lastShard tracks the last constant shard index a transaction
	// acquired through — kept at joins only when all live branches agree.
	lastShard map[string]shardAt
}

type shardAt struct {
	idx int
	pos token.Pos
}

func newLockState() *lockState {
	return &lockState{
		acquired:  map[string]token.Pos{},
		released:  map[string]token.Pos{},
		durable:   map[string]bool{},
		lastShard: map[string]shardAt{},
	}
}

// Clone implements analysis.State.
func (s *lockState) Clone() *lockState {
	c := &lockState{
		acquired:  make(map[string]token.Pos, len(s.acquired)),
		released:  make(map[string]token.Pos, len(s.released)),
		durable:   make(map[string]bool, len(s.durable)),
		lastShard: make(map[string]shardAt, len(s.lastShard)),
	}
	for k, v := range s.acquired {
		c.acquired[k] = v
	}
	for k, v := range s.released {
		c.released[k] = v
	}
	for k, v := range s.durable {
		c.durable[k] = v
	}
	for k, v := range s.lastShard {
		c.lastShard[k] = v
	}
	return c
}

// Join implements analysis.State: may-union for acquired,
// must-intersection for released/durable/lastShard over the live
// branches.
func (s *lockState) Join(live []*lockState, _ []token.Pos) {
	acquired := map[string]token.Pos{}
	for _, b := range live {
		for k, p := range b.acquired {
			if _, ok := acquired[k]; !ok {
				acquired[k] = p
			}
		}
	}
	released := map[string]token.Pos{}
	for k, p := range live[0].released {
		all := true
		for _, b := range live[1:] {
			if _, ok := b.released[k]; !ok {
				all = false
				break
			}
		}
		if all {
			released[k] = p
		}
	}
	durable := map[string]bool{}
	for k := range live[0].durable {
		all := true
		for _, b := range live[1:] {
			if !b.durable[k] {
				all = false
				break
			}
		}
		if all {
			durable[k] = true
		}
	}
	lastShard := map[string]shardAt{}
	for k, v := range live[0].lastShard {
		all := true
		for _, b := range live[1:] {
			if o, ok := b.lastShard[k]; !ok || o.idx != v.idx {
				all = false
				break
			}
		}
		if all {
			lastShard[k] = v
		}
	}
	s.acquired = acquired
	s.released = released
	s.durable = durable
	s.lastShard = lastShard
}

// flow walks one function. Each function is analyzed once from an empty
// in-state: a caller's releases do not excuse acquisitions inside the
// callee (the callee may be entered on a path without them).
type flow struct {
	x   *checker
	pkg *analysis.Package
	fn  *analysis.Func
}

func newFlow(x *checker, fn *analysis.Func) *flow {
	return &flow{x: x, pkg: fn.Pkg, fn: fn}
}

func (a *flow) run() {
	s := newLockState()
	w := &analysis.Walker[*lockState]{Facts: a.x.facts, Hooks: a}
	if w.Walk(a.fn.Decl.Body, s) {
		a.checkLeak(s, a.fn.Decl.Body.Rbrace)
	}
}

// IndexWrite implements analysis.Hooks; element writes carry no lock rule.
func (a *flow) IndexWrite(ast.Expr, token.Pos, *lockState) {}

// Loop implements analysis.Hooks: loops whose bodies acquire through
// shard-routed managers must iterate in canonical order.
func (a *flow) Loop(loop ast.Stmt, _ *lockState) {
	switch v := loop.(type) {
	case *ast.ForStmt:
		a.checkLoopOrder(v, v.Body, nil, nil, false)
	case *ast.RangeStmt:
		keyObj, sliceRange := a.rangeKey(v)
		a.checkLoopOrder(v, v.Body, keyObj, v.X, sliceRange)
	}
}

// Return implements analysis.Hooks: leak checks apply only to the
// enclosing function's own returns (a closure returning while the outer
// function still holds locks is not an exit of the transaction).
func (a *flow) Return(ret *ast.ReturnStmt, inLit bool, s *lockState) {
	if !inLit {
		a.checkLeak(s, ret.Pos())
	}
}

// Call implements analysis.Hooks: it classifies one call as a lock event
// (acquire / release), a durable decision record, or a durability wait
// carrying a continuation.
func (a *flow) Call(call *analysis.Call, s *lockState) {
	obj, c := call.Obj, call.Expr
	if obj == nil {
		return
	}
	switch {
	case isManagerMethod(obj, "Acquire") && len(c.Args) >= 2:
		txn := txnOf(c.Args[0])
		key := txnOf(c.Args[1])
		if relPos, ok := s.released[txn]; ok {
			a.x.diags.Reportf(a.pkg.Fset.Position(c.Pos()), RuleTwoPhase,
				"acquires %s for %s after its locks were released at %s; two-phase locking forbids growing after shrinking",
				key, txn, a.pkg.ShortPos(relPos))
		}
		s.acquired[txn+"\x00"+key] = c.Pos()
		if ie := managerIndexExpr(c); ie != nil {
			if idx, ok := constIndex(a.pkg, ie); ok {
				if last, held := s.lastShard[txn]; held && idx < last.idx {
					a.x.diags.Reportf(a.pkg.Fset.Position(c.Pos()), RuleOrder,
						"acquires shard %d for %s after shard %d (%s); cross-shard acquisitions must follow ascending shard-index order, or a detector-blind waits-for cycle can close across managers",
						idx, txn, last.idx, a.pkg.ShortPos(last.pos))
				}
				s.lastShard[txn] = shardAt{idx: idx, pos: c.Pos()}
			}
		}
	case isManagerMethod(obj, "ReleaseAll") && len(c.Args) >= 1:
		txn := txnOf(c.Args[0])
		if a.x.sums[a.fn].walTxns[txn] && !s.durable[txn] {
			a.x.diags.Reportf(a.pkg.Fset.Position(c.Pos()), RuleHold,
				"releases %s's locks before its durable decision record; the wal commit/abort must land first (strictness protects recovery)",
				txn)
		}
		prefix := txn + "\x00"
		for k := range s.acquired {
			if strings.HasPrefix(k, prefix) {
				delete(s.acquired, k)
			}
		}
		delete(s.lastShard, txn)
		s.released[txn] = c.Pos()
	case isManagerMethod(obj, "Release") && len(c.Args) >= 2:
		txn := txnOf(c.Args[0])
		key := txnOf(c.Args[1])
		delete(s.acquired, txn+"\x00"+key)
		s.released[txn] = c.Pos()
	case isWalDecision(obj) && len(c.Args) >= 1:
		s.durable[txnOf(c.Args[0])] = true
	default:
		if lit := a.x.syncThenCont(call); lit != nil {
			a.checkContinuation(lit)
		}
	}
}

// checkContinuation scans a stable.SyncThen continuation for lock
// acquisitions: the continuation runs after the durability wait settles,
// so an acquire inside it extends the growing phase past an fsync
// boundary while every already-held lock stays pinned — serialized lock
// waits behind storage latency the 2PL argument never priced in.
func (a *flow) checkContinuation(lit *ast.FuncLit) {
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c := a.x.facts.CallOf(call)
		if isManagerMethod(c.Obj, "Acquire") {
			a.x.diags.Reportf(a.pkg.Fset.Position(call.Pos()), RuleHold,
				"acquires a lock inside a stable.SyncThen continuation; the growing phase must complete before the durability wait")
			reported = true
			return false
		}
		for _, callee := range c.Callees() {
			if a.x.sums[callee].reachesAcquire {
				a.x.diags.Reportf(a.pkg.Fset.Position(call.Pos()), RuleHold,
					"calls %s, which acquires locks, inside a stable.SyncThen continuation; the growing phase must complete before the durability wait",
					callee.Name)
				reported = true
				return false
			}
		}
		return true
	})
}

// rangeKey resolves a range statement's key variable and whether the
// ranged expression is a slice or array (index order ascending — a map
// range would visit shards in randomized order).
func (a *flow) rangeKey(v *ast.RangeStmt) (types.Object, bool) {
	id, ok := analysis.Unparen(v.Key).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := a.pkg.Info.Defs[id]
	if obj == nil {
		obj = a.pkg.Info.Uses[id]
	}
	if obj == nil {
		return nil, false
	}
	tv, ok := a.pkg.Info.Types[v.X]
	if !ok {
		return obj, false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array:
		return obj, true
	}
	if p, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
		if _, isArr := p.Elem().Underlying().(*types.Array); isArr {
			return obj, true
		}
	}
	return obj, false
}

// checkLoopOrder convicts loops whose bodies acquire locks through
// shard-routed managers in iteration order — the static shape of the
// cross-manager deadlock: two such loops iterating opposite key orders
// close a waits-for cycle neither per-shard detector sees. The one
// exempt shape is ranging over the manager collection itself by ascending
// slice index (s.shards[i] with i the range key over s.shards). Nested
// loops are skipped — they are checked as their own loops.
func (a *flow) checkLoopOrder(loop ast.Stmt, body *ast.BlockStmt, keyObj types.Object, rangeX ast.Expr, sliceRange bool) {
	reported := false
	for _, st := range body.List {
		ast.Inspect(st, func(n ast.Node) bool {
			if reported {
				return false
			}
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			routed, name := a.routedCallee(call)
			if !routed {
				return true
			}
			if sliceRange && keyObj != nil && a.indexedByKey(call, keyObj, rangeX) {
				return true
			}
			a.x.diags.Reportf(a.pkg.Fset.Position(loop.Pos()), RuleOrder,
				"loop body acquires locks through %s with iteration-dependent shard routing; acquisitions must follow ascending shard-index order (sort the iteration by shard first, or annotate //lock:ordered with the reason no cross-manager cycle can form)",
				name)
			reported = true
			return false
		})
		if reported {
			return
		}
	}
}

// routedCallee reports whether a call can acquire through shard-routed
// managers (directly or transitively) and names the offender.
func (a *flow) routedCallee(call *ast.CallExpr) (bool, string) {
	c := a.x.facts.CallOf(call)
	if a.x.isRoutedCall(a.pkg, c) {
		return true, c.Obj.Name()
	}
	for _, callee := range c.Callees() {
		if a.x.sums[callee].routedAcquire {
			return true, callee.Name
		}
	}
	return false, ""
}

// indexedByKey reports whether the call's receiver chain indexes the
// ranged collection by the loop's own key variable (s.shards[i].… inside
// `for i := range s.shards`) — ascending slice order by construction.
func (a *flow) indexedByKey(call *ast.CallExpr, keyObj types.Object, rangeX ast.Expr) bool {
	ie := managerIndexExpr(call)
	if ie == nil {
		return false
	}
	id, ok := analysis.Unparen(ie.Index).(*ast.Ident)
	if !ok || a.pkg.Info.Uses[id] != keyObj {
		return false
	}
	return types.ExprString(analysis.Unparen(ie.X)) == types.ExprString(analysis.Unparen(rangeX))
}

// checkLeak convicts a return path on which an acquired lock survives.
// Only lock-managing functions — both a direct Acquire and a direct
// ReleaseAll in the body — are eligible: a store operation that acquires
// and leaves release to Commit/Abort is the normal strict-2PL split, not
// a leak.
func (a *flow) checkLeak(s *lockState, pos token.Pos) {
	sum := a.x.sums[a.fn]
	if !sum.directAcquire || !sum.directReleaseAll {
		return
	}
	keys := make([]string, 0, len(s.acquired))
	for k := range s.acquired {
		txn, _, _ := strings.Cut(k, "\x00")
		if sum.deferredRelease[txn] {
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	txn, key, _ := strings.Cut(keys[0], "\x00")
	a.x.diags.Reportf(a.pkg.Fset.Position(pos), RuleLeak,
		"returns while %s may still hold %s (acquired at %s) with no ReleaseAll on this path; strict 2PL releases every lock at transaction end",
		txn, key, a.pkg.ShortPos(s.acquired[keys[0]]))
}
