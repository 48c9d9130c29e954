package analysis

import (
	"go/ast"
	"go/token"
)

// State is a dataflow lattice element the statement walker threads
// through a function body. S is the implementing (pointer) type.
type State[S any] interface {
	// Clone returns an independent copy.
	Clone() S
	// Join replaces the receiver with the merge of the live (non-returning)
	// branch out-states; pos[i] is where branch i starts.
	Join(live []S, pos []token.Pos)
}

// Hooks are the points where a layer's dataflow analysis acts on the walk.
type Hooks[S any] interface {
	// Call sees every call site outside function literals' bodies (which
	// are walked as their own blocks), except the delete builtin.
	Call(call *Call, s S)
	// IndexWrite sees an element write: target[i] = ..., target[i]++,
	// delete(target, k). pos is the write's position.
	IndexWrite(target ast.Expr, pos token.Pos, s S)
	// Loop sees a for or range statement before its body is walked.
	Loop(loop ast.Stmt, s S)
	// Return sees a return statement after its results are walked; inLit
	// reports a return from a function literal.
	Return(ret *ast.ReturnStmt, inLit bool, s S)
}

// Walker is the branch-sensitive statement walker shared by the dataflow
// layers. Branches are walked on clones of the in-state and joined over
// the branches that fall through; a switch without default adds an
// implicit pass-through branch; a loop body is walked once on a clone (the
// loop may run zero times, so the out-state is the in-state); deferred
// calls, goroutines and function literals are walked on snapshots whose
// effects never flow back. break, continue, goto and fallthrough end their
// path conservatively, like a return.
type Walker[S State[S]] struct {
	Facts    *Facts
	Hooks    Hooks[S]
	litDepth int
}

// frame is one path's state and whether that path has left the region.
type frame[S State[S]] struct {
	s    S
	done bool
}

func (f *frame[S]) clone() *frame[S] { return &frame[S]{s: f.s.Clone(), done: f.done} }

// Walk walks a function body from the in-state s, updating it, and reports
// whether control can fall off the body's end.
func (w *Walker[S]) Walk(body *ast.BlockStmt, s S) bool {
	f := &frame[S]{s: s}
	w.block(body.List, f)
	return !f.done
}

func (w *Walker[S]) join(f *frame[S], branches []*frame[S], pos []token.Pos) {
	var live []S
	var livePos []token.Pos
	for i, b := range branches {
		if !b.done {
			live = append(live, b.s)
			livePos = append(livePos, pos[i])
		}
	}
	if len(live) == 0 {
		f.done = true
		return
	}
	f.s.Join(live, livePos)
}

func (w *Walker[S]) block(list []ast.Stmt, f *frame[S]) {
	for _, st := range list {
		w.stmt(st, f)
	}
}

func (w *Walker[S]) stmt(st ast.Stmt, f *frame[S]) {
	switch v := st.(type) {
	case nil:
	case *ast.BlockStmt:
		w.block(v.List, f)
	case *ast.ExprStmt:
		w.expr(v.X, f)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			w.expr(rhs, f)
		}
		for _, lhs := range v.Lhs {
			w.expr(lhs, f)
			if ie, ok := lhs.(*ast.IndexExpr); ok {
				w.Hooks.IndexWrite(ie.X, ie.Pos(), f.s)
			}
		}
	case *ast.IncDecStmt:
		w.expr(v.X, f)
		if ie, ok := v.X.(*ast.IndexExpr); ok {
			w.Hooks.IndexWrite(ie.X, ie.Pos(), f.s)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						w.expr(val, f)
					}
				}
			}
		}
	case *ast.IfStmt:
		w.stmt(v.Init, f)
		w.expr(v.Cond, f)
		then := f.clone()
		w.stmt(v.Body, then)
		els := f.clone()
		elsPos := v.Pos()
		if v.Else != nil {
			elsPos = v.Else.Pos()
			w.stmt(v.Else, els)
		}
		w.join(f, []*frame[S]{then, els}, []token.Pos{v.Body.Pos(), elsPos})
	case *ast.SwitchStmt:
		w.stmt(v.Init, f)
		w.expr(v.Tag, f)
		w.caseBranches(v.Body, v.Pos(), f)
	case *ast.TypeSwitchStmt:
		w.stmt(v.Init, f)
		w.stmt(v.Assign, f)
		w.caseBranches(v.Body, v.Pos(), f)
	case *ast.SelectStmt:
		var branches []*frame[S]
		var pos []token.Pos
		for _, cl := range v.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			b := f.clone()
			w.stmt(cc.Comm, b)
			w.block(cc.Body, b)
			branches = append(branches, b)
			pos = append(pos, cc.Pos())
		}
		if len(branches) > 0 {
			w.join(f, branches, pos)
		}
	case *ast.ForStmt:
		w.stmt(v.Init, f)
		w.expr(v.Cond, f)
		w.Hooks.Loop(v, f.s)
		body := f.clone()
		w.block(v.Body.List, body)
		w.stmt(v.Post, body)
	case *ast.RangeStmt:
		w.expr(v.X, f)
		w.Hooks.Loop(v, f.s)
		w.block(v.Body.List, f.clone())
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			w.expr(r, f)
		}
		w.Hooks.Return(v, w.litDepth > 0, f.s)
		f.done = true
	case *ast.BranchStmt:
		f.done = true
	case *ast.DeferStmt:
		w.expr(v.Call, f.clone())
	case *ast.GoStmt:
		w.expr(v.Call, f.clone())
	case *ast.SendStmt:
		w.expr(v.Chan, f)
		w.expr(v.Value, f)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt, f)
	}
}

// caseBranches joins the clauses of a switch or type switch; a missing
// default adds an implicit pass-through branch starting at the switch.
func (w *Walker[S]) caseBranches(body *ast.BlockStmt, pos token.Pos, f *frame[S]) {
	var branches []*frame[S]
	var poss []token.Pos
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		b := f.clone()
		for _, e := range cc.List {
			w.expr(e, b)
		}
		w.block(cc.Body, b)
		branches = append(branches, b)
		poss = append(poss, cc.Pos())
	}
	if !hasDefault {
		branches = append(branches, f.clone())
		poss = append(poss, pos)
	}
	w.join(f, branches, poss)
}

// expr walks an expression's calls in source order; a function literal's
// body is walked against a snapshot (it may run later, and its effects
// must not flow into the point that creates it).
func (w *Walker[S]) expr(e ast.Expr, f *frame[S]) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			w.litDepth++
			w.block(v.Body.List, f.clone())
			w.litDepth--
			return false
		case *ast.CallExpr:
			c := w.Facts.CallOf(v)
			if c.IsDelete() {
				if len(v.Args) > 0 {
					w.Hooks.IndexWrite(v.Args[0], v.Pos(), f.s)
				}
			} else {
				w.Hooks.Call(c, f.s)
			}
		}
		return true
	})
}
