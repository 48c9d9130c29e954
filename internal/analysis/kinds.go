package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// SendKindIndex reports whether obj is an externally visible send
// primitive and, if so, which argument carries the message kind. Both
// faces of the runtime boundary count: the rt.Transport interface the
// ported engines call through and the simulator's concrete
// simnet.Network (harness code).
func SendKindIndex(obj types.Object) (int, bool) {
	if IsMethodOn(obj, "internal/rt", "Transport", "Send") ||
		IsMethodOn(obj, "internal/simnet", "Network", "Send") {
		return 2, true
	}
	if IsMethodOn(obj, "internal/rt", "Transport", "Broadcast") ||
		IsMethodOn(obj, "internal/simnet", "Network", "Broadcast") {
		return 1, true
	}
	return 0, false
}

// StringConstVars maps every local variable of a function to the string
// constants assigned to it anywhere in its body (flow-insensitively), so a
// use of the variable can be checked against everything it may hold.
func StringConstVars(fn *Func) map[types.Object][]types.Object {
	info := fn.Pkg.Info
	out := map[types.Object][]types.Object{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		lobj := info.Defs[id]
		if lobj == nil {
			lobj = info.Uses[id]
		}
		if lobj == nil {
			return
		}
		if c, ok := ObjectOf(fn.Pkg, rhs).(*types.Const); ok && c.Val().Kind() == constant.String {
			out[lobj] = append(out[lobj], c)
		}
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Lhs {
					record(v.Lhs[i], v.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(v.Names) == len(v.Values) {
				for i := range v.Names {
					record(v.Names[i], v.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// KindConsts resolves a message-kind expression inside fn to the
// constants it may hold: a named constant, or every string constant vars
// (see StringConstVars) records for the local variable it names. A
// parameter of fn (its call sites carry the actual kind) and a literal (it
// names no constant) resolve to no constants but count as resolved;
// anything else is unresolved.
func KindConsts(fn *Func, vars map[types.Object][]types.Object, e ast.Expr) (kinds []types.Object, resolved bool) {
	switch v := Unparen(e).(type) {
	case *ast.Ident:
		obj := fn.Pkg.Info.Uses[v]
		if obj == nil {
			return nil, false
		}
		if _, isParam := fn.ParamIdx[obj]; isParam {
			return nil, true
		}
		if _, isConst := obj.(*types.Const); isConst {
			return []types.Object{obj}, true
		}
		return vars[obj], len(vars[obj]) > 0
	case *ast.SelectorExpr:
		if obj, ok := fn.Pkg.Info.Uses[v.Sel].(*types.Const); ok {
			return []types.Object{obj}, true
		}
	case *ast.BasicLit:
		return nil, true
	}
	return nil, false
}
