package lockcheck

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// checker accumulates the lock-discipline facts of one fact base.
type checker struct {
	facts *analysis.Facts
	diags analysis.Findings
	// sums holds this layer's summary of every indexed function.
	sums map[*analysis.Func]*summary
	rep  *Report
}

// summary is the per-function fact sheet the flow analysis consumes.
type summary struct {
	// isRoot marks analysis roots (//fsm:handler, //dur:handler, //comm:op
	// or //lock:handler docs).
	isRoot bool
	// directAcquire / directReleaseAll: the body itself calls
	// locking.Manager.Acquire / ReleaseAll (the lock-leak eligibility
	// pair).
	directAcquire    bool
	directReleaseAll bool
	// deferredRelease holds the transaction expressions ReleaseAll'd in
	// defer statements — those paths are release-covered at every return.
	deferredRelease map[string]bool
	// walTxns holds the transaction expressions whose wal.Log.Commit/Abort
	// decision record this body writes (the lock-hold(b) scope).
	walTxns map[string]bool
	// reachesAcquire: directAcquire, or calls (statically or through an
	// interface) a function that reaches an acquire.
	reachesAcquire bool
	// routedAcquire: the body contains a shard-routed acquire-reaching call
	// (see isRoutedCall), or calls a function that does.
	routedAcquire bool
	// syncWrapIdx is the flattened parameter index this function forwards
	// as the continuation to stable.Store.SyncThen; -1 otherwise.
	syncWrapIdx int
}

func newChecker(facts *analysis.Facts) *checker {
	x := &checker{facts: facts, sums: map[*analysis.Func]*summary{}, rep: &Report{}}
	for _, fn := range facts.Funcs {
		x.sums[fn] = &summary{syncWrapIdx: -1, deferredRelease: map[string]bool{}, walTxns: map[string]bool{}}
	}
	return x
}

// check runs the full pipeline: directive validation and binding,
// per-function fact computation, the two reachability closures, and the
// flow analysis of every function in scope.
func (x *checker) check() *Report {
	x.bindDirectives()
	for _, fn := range x.facts.Roots("fsm:handler", "dur:handler", "comm:op") {
		x.sums[fn].isRoot = true
	}
	var roots []*analysis.Func
	for _, fn := range x.facts.Funcs {
		if x.sums[fn].isRoot {
			roots = append(roots, fn)
			x.rep.Roots = append(x.rep.Roots, fn.Name)
		}
	}
	x.computeFacts()
	analyzed := x.facts.Reachable(roots, true, nil)
	x.countCoverage(analyzed)
	for _, fn := range analyzed {
		newFlow(x, fn).run()
	}
	x.rep.Analyzed = len(analyzed)
	sort.Strings(x.rep.Roots)
	return x.rep
}

// bindDirectives validates every //lock: directive and binds
// //lock:handler to the function whose doc carries it; the suppressions
// need only a reason.
func (x *checker) bindDirectives() {
	for _, d := range x.facts.Directives("lock") {
		switch d.Verb {
		case "handler":
			if len(d.Args) != 0 {
				x.diags.Reportf(d.Pos, RuleExtract, "malformed //lock:handler: want no arguments, got %d", len(d.Args))
				continue
			}
			if fn := x.facts.FuncOf(d.Func); d.Attach == analysis.AttachFunc && fn != nil {
				x.sums[fn].isRoot = true
				continue
			}
			x.diags.Reportf(d.Pos, RuleExtract, "//lock:handler is not attached to a declaration")
		case "ignore", "ordered":
			if d.Rest == "" {
				x.diags.Reportf(d.Pos, RuleExtract, "//lock:%s requires a reason", d.Verb)
			}
		default:
			x.diags.Reportf(d.Pos, RuleExtract, "unknown directive //lock:%s", d.Verb)
		}
	}
}

// computeFacts fills the per-function classification fields: direct lock
// events, deferred releases, wal decision writes, SyncThen forwarding —
// then propagates the two reachability properties (reachesAcquire,
// routedAcquire) over static and interface-bridged call edges.
func (x *checker) computeFacts() {
	for _, fn := range x.facts.Funcs {
		x.computeFuncFacts(fn)
	}
	// One propagation pass for wrappers of syncThen wrappers.
	for _, fn := range x.facts.Funcs {
		sum := x.sums[fn]
		if sum.syncWrapIdx >= 0 {
			continue
		}
		for _, c := range fn.Calls {
			callee := x.sums[c.Static]
			if callee == nil || callee.syncWrapIdx < 0 || callee.syncWrapIdx >= len(c.Expr.Args) {
				continue
			}
			if pidx := fn.ParamIndex(c.Expr.Args[callee.syncWrapIdx]); pidx >= 0 {
				sum.syncWrapIdx = pidx
			}
		}
	}
	for _, sum := range x.sums {
		sum.reachesAcquire = sum.directAcquire
	}
	x.closure(func(s *summary) *bool { return &s.reachesAcquire })
	// routedAcquire: seed with bodies containing a base routed call, then
	// propagate through callers.
	for _, fn := range x.facts.Funcs {
		for _, c := range fn.Calls {
			if x.isRoutedCall(fn.Pkg, c) {
				x.sums[fn].routedAcquire = true
			}
		}
	}
	x.closure(func(s *summary) *bool { return &s.routedAcquire })
}

// closure propagates a boolean function property backwards over the call
// graph (static and interface-bridged edges) until no function changes.
func (x *checker) closure(prop func(*summary) *bool) {
	for changed := true; changed; {
		changed = false
		for _, fn := range x.facts.Funcs {
			has := prop(x.sums[fn])
			for _, c := range fn.Calls {
				for _, callee := range c.Callees() {
					if !*has && *prop(x.sums[callee]) {
						*has = true
						changed = true
					}
				}
			}
		}
	}
}

func (x *checker) computeFuncFacts(fn *analysis.Func) {
	sum := x.sums[fn]
	for _, c := range fn.Calls {
		switch {
		case isManagerMethod(c.Obj, "Acquire"):
			sum.directAcquire = true
		case isManagerMethod(c.Obj, "ReleaseAll"):
			sum.directReleaseAll = true
		case isWalDecision(c.Obj):
			if len(c.Expr.Args) > 0 {
				sum.walTxns[txnOf(c.Expr.Args[0])] = true
			}
		case isSyncThen(c.Obj):
			if len(c.Expr.Args) > 0 {
				if pidx := fn.ParamIndex(c.Expr.Args[0]); pidx >= 0 {
					sum.syncWrapIdx = pidx
				}
			}
		}
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if v, ok := n.(*ast.DeferStmt); ok && len(v.Call.Args) > 0 && isManagerMethod(x.facts.CallOf(v.Call).Obj, "ReleaseAll") {
			sum.deferredRelease[txnOf(v.Call.Args[0])] = true
		}
		return true
	})
}

// txnOf renders a lock-call argument as the syntactic identity its
// transaction (or key) is tracked by.
func txnOf(e ast.Expr) string { return types.ExprString(analysis.Unparen(e)) }

// isRoutedCall reports whether a call can acquire locks through
// shard-routed managers: a direct Acquire whose manager expression indexes
// a collection with a non-constant index, a method on a multi-manager type
// that reaches an acquire, or an interface-method call with such an
// implementation in the load.
func (x *checker) isRoutedCall(pkg *analysis.Package, c *analysis.Call) bool {
	if isManagerMethod(c.Obj, "Acquire") {
		ie := managerIndexExpr(c.Expr)
		if ie == nil {
			return false
		}
		_, isConst := constIndex(pkg, ie)
		return !isConst
	}
	for _, fn := range c.Callees() {
		if fn.Recv != nil && x.sums[fn].reachesAcquire && multiManager(fn.Recv) {
			return true
		}
	}
	return false
}

// countCoverage fills the non-vacuity counters over the analyzed set.
func (x *checker) countCoverage(analyzed []*analysis.Func) {
	for _, fn := range analyzed {
		for _, c := range fn.Calls {
			switch {
			case isManagerMethod(c.Obj, "Acquire"):
				x.rep.AcquireSites++
			case isManagerMethod(c.Obj, "Release", "ReleaseAll"):
				x.rep.ReleaseSites++
			}
			if x.isRoutedCall(fn.Pkg, c) {
				x.rep.RoutedCalls++
			}
			if x.syncThenCont(c) != nil {
				x.rep.SyncThenSites++
			}
		}
	}
}

// syncThenCont returns the continuation function literal a call hands to
// stable.Store.SyncThen, directly or through a wrapper, nil when it hands
// none. Calls that forward this function's own continuation parameter
// contribute nothing — their call sites carry the literal.
func (x *checker) syncThenCont(c *analysis.Call) *ast.FuncLit {
	idx := -1
	if isSyncThen(c.Obj) {
		idx = 0
	} else if callee := x.sums[c.Static]; callee != nil && callee.syncWrapIdx >= 0 {
		idx = callee.syncWrapIdx
	}
	if idx < 0 || idx >= len(c.Expr.Args) {
		return nil
	}
	lit, _ := analysis.Unparen(c.Expr.Args[idx]).(*ast.FuncLit)
	return lit
}

// --- object and type classification helpers --------------------------------

// isManagerMethod recognizes the locking.Manager lock-event API.
func isManagerMethod(obj types.Object, names ...string) bool {
	return analysis.IsMethodOn(obj, "internal/locking", "Manager", names...)
}

// isWalDecision recognizes the wal.Log decision records — the durable
// point strictness must reach before ReleaseAll.
func isWalDecision(obj types.Object) bool {
	return analysis.IsMethodOn(obj, "internal/wal", "Log", "Commit", "Abort")
}

// isSyncThen recognizes the stable.Store durability-wait primitive.
func isSyncThen(obj types.Object) bool {
	return analysis.IsMethodOn(obj, "internal/stable", "Store", "SyncThen")
}

// ownsManager reports whether t (a named struct, possibly behind a
// pointer) embeds its own locking.Manager — the single-manager shape.
func ownsManager(t types.Type) bool {
	st := underlyingStruct(t)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if p, ok := ft.(*types.Pointer); ok {
			ft = p.Elem()
		}
		if named, ok := ft.(*types.Named); ok {
			tn := named.Obj()
			if tn.Name() == "Manager" && tn.Pkg() != nil && strings.HasSuffix(tn.Pkg().Path(), "internal/locking") {
				return true
			}
		}
	}
	return false
}

// multiManager reports whether t routes between several lock managers: a
// struct with a slice, array or map of manager-owning elements. This is
// the shape whose per-element deadlock detectors are mutually blind.
func multiManager(t types.Type) bool {
	st := underlyingStruct(t)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		var elem types.Type
		switch ft := st.Field(i).Type().Underlying().(type) {
		case *types.Slice:
			elem = ft.Elem()
		case *types.Array:
			elem = ft.Elem()
		case *types.Map:
			elem = ft.Elem()
		default:
			continue
		}
		if p, ok := elem.(*types.Pointer); ok {
			elem = p.Elem()
		}
		if ownsManager(elem) {
			return true
		}
	}
	return false
}

func underlyingStruct(t types.Type) *types.Struct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// managerIndexExpr walks the selector chain of a manager-method call's
// receiver expression and returns the first index expression in it
// (s.shards[i].locks → s.shards[i]), nil when the chain has none.
func managerIndexExpr(call *ast.CallExpr) *ast.IndexExpr {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	e := sel.X
	for {
		switch v := analysis.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			return v
		case *ast.CallExpr:
			return managerIndexExpr(v)
		default:
			return nil
		}
	}
}

// constIndex evaluates an index expression's index to a constant int.
func constIndex(pkg *analysis.Package, ie *ast.IndexExpr) (int, bool) {
	tv, ok := pkg.Info.Types[ie.Index]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	return int(v), exact
}
