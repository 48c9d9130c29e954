package portcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"speccat/internal/analysis"
)

// checkBoundary enforces rt-boundary on one engine package: no simulator
// imports (suppressible per import line for harness files that own the
// simulator wiring), and no type assertion from an rt interface back to
// a concrete simulator type (assert rt.Quiescer instead).
func (x *checker) checkBoundary(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if simulatorPaths[path] {
				x.diags.Reportf(pkg.Fset.Position(imp.Pos()), RuleBoundary,
					"engine package imports the simulator package %s; engines speak rt.Transport / rt.Timer only", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var target ast.Expr
			switch v := n.(type) {
			case *ast.TypeAssertExpr:
				target = v.Type // nil for x.(type) in a type switch
			case *ast.CaseClause:
				for _, e := range v.List {
					if x.simulatorType(pkg, e) {
						x.diags.Reportf(pkg.Fset.Position(e.Pos()), RuleBoundary,
							"type switch reaches around the rt boundary to the concrete simulator type %s; assert an rt interface (e.g. rt.Quiescer) instead", typeDisplay(pkg, e))
					}
				}
				return true
			default:
				return true
			}
			if target != nil && x.simulatorType(pkg, target) {
				x.diags.Reportf(pkg.Fset.Position(target.Pos()), RuleBoundary,
					"type assertion reaches around the rt boundary to the concrete simulator type %s; assert an rt interface (e.g. rt.Quiescer) instead", typeDisplay(pkg, target))
			}
			return true
		})
	}
}

// simulatorType reports whether expr names a type declared in one of the
// walled-off simulator packages. Aliases re-exported through internal/rt
// (rt.Message = simnet.Message and friends) resolve to rt's named types
// and are not simulator types.
func (x *checker) simulatorType(pkg *analysis.Package, expr ast.Expr) bool {
	t := pkg.Info.TypeOf(expr)
	named := receiverNamed(t)
	if named == nil || named.Pkg() == nil {
		return false
	}
	for path := range simulatorPaths {
		if named.Pkg().Path() == path || strings.HasSuffix(named.Pkg().Path(), strings.TrimPrefix(path, "speccat/")) {
			return true
		}
	}
	return false
}

func typeDisplay(pkg *analysis.Package, expr ast.Expr) string {
	if named := receiverNamed(pkg.Info.TypeOf(expr)); named != nil {
		return named.Pkg().Name() + "." + named.Name()
	}
	return "?"
}

// checkConfine enforces rt-confine on one reachable function: the
// receiver's mutable state (and any pointer into package-local protocol
// structs) must stay on the node's event loop. Escapes are goroutines
// spawned from handler context, closures stored into package-level
// variables, and interior pointers returned from confined methods —
// unless every touched field carries a //rt:guard annotation.
func (x *checker) checkConfine(fn *analysis.Func) {
	pkg := fn.Pkg
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			if ref := x.confinedRefIn(fn, v.Call); ref != "" {
				x.diags.Reportf(pkg.Fset.Position(v.Pos()), RuleConfine,
					"handler state (%s) escapes to a spawned goroutine; confined state may only be touched on the node's event loop (annotate the field //rt:guard if externally synchronized)", ref)
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				id, ok := analysis.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Uses[id]
				if obj == nil {
					obj = pkg.Info.Defs[id]
				}
				if obj == nil || obj.Parent() != pkg.Types.Scope() {
					continue
				}
				if lit, ok := analysis.Unparen(v.Rhs[i]).(*ast.FuncLit); ok {
					if ref := x.confinedRefIn(fn, lit); ref != "" {
						x.diags.Reportf(pkg.Fset.Position(v.Pos()), RuleConfine,
							"closure capturing handler state (%s) is stored in package-level %s; confined state must not outlive its event-loop turn", ref, obj.Name())
					}
				}
			}
		case *ast.ReturnStmt:
			if fn.Recv == nil || !x.confined[fn.Recv.Obj()] {
				return true
			}
			for _, res := range v.Results {
				x.checkReturnedInterior(fn, res)
			}
		}
		return true
	})
}

// checkReturnedInterior flags a confined method returning an interior
// pointer to its receiver's state: &recv.f, or a bare reference-typed
// field recv.f (map, slice, pointer, chan).
func (x *checker) checkReturnedInterior(fn *analysis.Func, res ast.Expr) {
	pkg := fn.Pkg
	e := analysis.Unparen(res)
	addr := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = analysis.Unparen(u.X)
		addr = true
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	base, ok := analysis.Unparen(sel.X).(*ast.Ident)
	if !ok || !x.isReceiverIdent(fn, base) {
		return
	}
	fobj := pkg.Info.Uses[sel.Sel]
	if fobj == nil {
		return
	}
	if _, isVar := fobj.(*types.Var); !isVar {
		return
	}
	if x.guards[fobj] != "" {
		return
	}
	if !addr {
		switch fobj.Type().Underlying().(type) {
		case *types.Map, *types.Slice, *types.Pointer, *types.Chan:
		default:
			return
		}
	}
	x.diags.Reportf(pkg.Fset.Position(res.Pos()), RuleConfine,
		"confined method returns an interior pointer to handler state (%s.%s); return a copy, or annotate the field //rt:guard", base.Name, sel.Sel.Name)
}

// isReceiverIdent reports whether id is the function's receiver variable.
func (x *checker) isReceiverIdent(fn *analysis.Func, id *ast.Ident) bool {
	if fn.Decl.Recv == nil || len(fn.Decl.Recv.List) == 0 || len(fn.Decl.Recv.List[0].Names) == 0 {
		return false
	}
	robj := fn.Pkg.Info.Defs[fn.Decl.Recv.List[0].Names[0]]
	obj := fn.Pkg.Info.Uses[id]
	return robj != nil && obj == robj
}

// confinedRefIn scans a subtree for references that alias confined
// state: the receiver itself, or any variable whose type points into a
// struct declared in this engine package (the role struct or its
// satellite per-transaction records). Selectors onto //rt:guard-annotated
// fields are exempt, including everything reached through them.
func (x *checker) confinedRefIn(fn *analysis.Func, root ast.Node) string {
	pkg := fn.Pkg
	found := ""
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if fobj := pkg.Info.Uses[sel.Sel]; fobj != nil && x.guards[fobj] != "" {
				// A guarded field is safe off-loop by annotation; do not
				// descend into its base.
				return false
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if x.isReceiverIdent(fn, id) {
			found = id.Name
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		if p, ok := v.Type().(*types.Pointer); ok {
			if named := receiverNamed(p.Elem()); named != nil && named.Pkg() == pkg.Types {
				found = id.Name
				return false
			}
		}
		return true
	}
	ast.Inspect(root, walk)
	return found
}

// checkSendOrder enforces rt-sendorder on one reachable function: a send
// whose kind carries //dur:requires advertises a durable protocol step,
// so the in-memory state transition it announces must precede it. The
// check is per statement list: a requiring send is flagged when control
// can flow past its statement and a later statement in the same list
// performs the first state transition (directly, or via a call to a
// same-load function that assigns state).
func (x *checker) checkSendOrder(fn *analysis.Func) {
	sends := x.requiringSends(fn)
	if len(sends) == 0 {
		return
	}
	transitions := x.transitionPositions(fn)
	if len(transitions) == 0 {
		return
	}
	reported := map[token.Pos]bool{}
	x.walkBlocks(fn.Decl.Body, func(list []ast.Stmt) {
		for i, si := range list {
			if isCaseClause(si) {
				// A switch body's statement list is its case clauses; the
				// cases are mutually exclusive alternatives, not sequential
				// statements, and each case body is walked as its own list.
				continue
			}
			for pos, kind := range sends {
				if !within(si, pos) || reported[pos] || !escapes(si, pos) {
					continue
				}
				for _, sj := range list[i+1:] {
					if containsAny(sj, transitions) {
						reported[pos] = true
						x.diags.Reportf(fn.Pkg.Fset.Position(pos), RuleSendOrder,
							"send of %s races ahead of the in-memory state transition it advertises (transition at %s); transition, persist, then send", kind, fn.Pkg.ShortPos(firstWithin(sj, transitions)))
						break
					}
					if _, isRet := sj.(*ast.ReturnStmt); isRet {
						break
					}
				}
			}
		}
	})
}

// requiringSends maps the positions of this function's requiring send
// call sites to the kind-constant names they send.
func (x *checker) requiringSends(fn *analysis.Func) map[token.Pos]string {
	varKinds := analysis.StringConstVars(fn)
	out := map[token.Pos]string{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		// A send inside a closure (an After callback, typically) does not
		// execute at the statement that creates the closure; it is ordered
		// by when the runtime fires it, not where it is written.
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c := x.facts.CallOf(call)
		idx := -1
		if i, isSend := analysis.SendKindIndex(c.Obj); isSend {
			idx = i
		} else if ci := x.sums[c.Static]; ci != nil && ci.sendWrapKindIdx >= 0 {
			idx = ci.sendWrapKindIdx
		}
		if idx < 0 || idx >= len(call.Args) {
			return true
		}
		kinds, _ := analysis.KindConsts(fn, varKinds, call.Args[idx])
		for _, kobj := range kinds {
			if _, requiring := x.requires[kobj]; requiring {
				out[call.Pos()] = kobj.Name()
				break
			}
		}
		return true
	})
	return out
}

// transitionPositions collects the positions of this function's in-memory
// state transitions: direct assignments to state-typed fields, plus calls
// to same-load functions that directly assign state (one level of call
// summaries, enough for the decide()/commit() helpers of the engines).
func (x *checker) transitionPositions(fn *analysis.Func) map[token.Pos]bool {
	pkg := fn.Pkg
	out := map[token.Pos]bool{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// A transition inside a closure happens when the closure runs
			// (on the event loop, later), not at the statement installing
			// it — it must not order against sends in the enclosing list.
			return false
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if x.isStateField(pkg, lhs) {
					out[v.Pos()] = true
				}
			}
		case *ast.CallExpr:
			if ci := x.sums[x.facts.CallOf(v).Static]; ci != nil && ci.assignsState {
				out[v.Pos()] = true
			}
		}
		return true
	})
	return out
}

// walkBlocks invokes fn on every statement list of the function body.
func (x *checker) walkBlocks(body *ast.BlockStmt, fn func([]ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			fn(v.List)
		case *ast.CaseClause:
			fn(v.Body)
		case *ast.CommClause:
			fn(v.Body)
		}
		return true
	})
}

// isCaseClause reports whether s is a switch or select clause.
func isCaseClause(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.CaseClause, *ast.CommClause:
		return true
	}
	return false
}

// within reports whether pos falls inside the statement's extent.
func within(s ast.Stmt, pos token.Pos) bool {
	return s.Pos() <= pos && pos < s.End()
}

// containsAny reports whether any of the positions fall inside the
// statement.
func containsAny(s ast.Stmt, positions map[token.Pos]bool) bool {
	for p := range positions {
		if within(s, p) {
			return true
		}
	}
	return false
}

// firstWithin returns the earliest of the positions inside the statement.
func firstWithin(s ast.Stmt, positions map[token.Pos]bool) token.Pos {
	best := token.NoPos
	for p := range positions {
		if within(s, p) && (best == token.NoPos || p < best) {
			best = p
		}
	}
	return best
}

// escapes reports whether control can flow past stmt after executing the
// send at pos: walking up from the innermost statement list containing
// the send, a trailing return terminates the path (so the send cannot
// race a transition in an outer list).
func escapes(stmt ast.Stmt, pos token.Pos) bool {
	terminated := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		var list []ast.Stmt
		switch v := n.(type) {
		case *ast.BlockStmt:
			list = v.List
		case *ast.CaseClause:
			list = v.Body
		case *ast.CommClause:
			list = v.Body
		default:
			return true
		}
		after := false
		for _, s := range list {
			if within(s, pos) {
				after = true
				continue
			}
			if !after {
				continue
			}
			if _, isRet := s.(*ast.ReturnStmt); isRet {
				terminated = true
				return false
			}
		}
		return true
	}
	ast.Inspect(stmt, visit)
	return !terminated
}
