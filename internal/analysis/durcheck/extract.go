package durcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// checker accumulates the durability facts of one fact base.
type checker struct {
	facts *analysis.Facts
	diags analysis.Findings

	// requires maps a wire-kind constant to the durable-write class its
	// sends demand.
	requires map[types.Object]string
	// pkgRequires marks packages declaring at least one //dur:requires;
	// only there is an unresolvable send kind worth a finding.
	pkgRequires map[*types.Package]bool

	// volatiles are //dur:volatile-annotated fields and vars.
	volatiles map[types.Object]string

	// sums holds this layer's summary of every indexed function.
	sums map[*analysis.Func]*summary

	rep *Report
}

// summary is the per-function fact sheet the flow analysis consumes.
type summary struct {
	// isRoot marks analysis roots (//fsm:handler or //dur:handler).
	isRoot bool
	// writes holds the //dur:writes classes; annotated distinguishes an
	// empty list from "no annotation".
	writes    []string
	annotated bool
	// appliesParam is the //dur:applies map parameter, if any.
	appliesParam types.Object
	appliesName  string

	// directDurable: the body itself mutates stable storage (stable.Store
	// mutator, wal.Log mutator, or wal.Resolve).
	directDurable bool
	// reachesDurable: directDurable, or calls a callee that is annotated
	// or directDurable (the "one level of call summaries" rule).
	reachesDurable bool
	// sendWrapKindIdx is the flattened parameter index this function
	// forwards as a message kind to Network.Send/Broadcast; -1 otherwise.
	sendWrapKindIdx int
	// mutatesVolatile: the body index-assigns or deletes through a
	// //dur:volatile object or this function's //dur:applies parameter.
	mutatesVolatile bool
}

func newChecker(facts *analysis.Facts) *checker {
	x := &checker{
		facts:       facts,
		requires:    map[types.Object]string{},
		pkgRequires: map[*types.Package]bool{},
		volatiles:   map[types.Object]string{},
		sums:        map[*analysis.Func]*summary{},
		rep: &Report{
			Requires:  map[string]string{},
			KindValue: map[string]string{},
			Writes:    map[string][]string{},
		},
	}
	for _, fn := range facts.Funcs {
		x.sums[fn] = &summary{sendWrapKindIdx: -1}
	}
	return x
}

// check runs the full pipeline: directive validation and binding,
// per-function fact computation, reachability, and the flow analysis of
// every function in scope.
func (x *checker) check() *Report {
	for _, d := range x.facts.Directives("dur") {
		if x.wellFormed(d) {
			x.bind(d)
		}
	}
	for _, fn := range x.facts.Roots("fsm:handler") {
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
	x.validateWrites()
	analyzed := x.analysisSet(roots)
	for _, fn := range analyzed {
		newFlow(x, fn).run()
	}
	x.rep.Analyzed = len(analyzed)
	sort.Strings(x.rep.Roots)
	sort.Strings(x.rep.Volatiles)
	return x.rep
}

// wellFormed validates a directive's arity, reporting malformed ones;
// suppressions are well-formed only with a reason and bind nowhere.
func (x *checker) wellFormed(d *analysis.Directive) bool {
	switch d.Verb {
	case "requires", "applies":
		if len(d.Args) != 1 {
			x.diags.Reportf(d.Pos, RuleExtract, "malformed //dur:%s: want exactly one argument, got %d", d.Verb, len(d.Args))
			return false
		}
	case "writes":
		if len(d.Args) == 0 {
			x.diags.Reportf(d.Pos, RuleExtract, "malformed //dur:writes: want at least one class")
			return false
		}
	case "handler", "volatile":
		if len(d.Args) != 0 {
			x.diags.Reportf(d.Pos, RuleExtract, "malformed //dur:%s: want no arguments", d.Verb)
			return false
		}
	case "ignore":
		if d.Rest == "" {
			x.diags.Reportf(d.Pos, RuleExtract, "//dur:ignore requires a reason")
		}
		return false
	default:
		x.diags.Reportf(d.Pos, RuleExtract, "unknown directive //dur:%s", d.Verb)
		return false
	}
	return true
}

// bind attaches a well-formed directive to its declaration: requires to a
// constant, volatile to a var or named-struct field, handler, writes and
// applies to a function.
func (x *checker) bind(d *analysis.Directive) {
	switch {
	case d.Attach == analysis.AttachValue && d.Trailing && d.Gen.Tok == token.CONST:
		x.bindConst(d)
	case d.Attach == analysis.AttachValue && d.Trailing && d.Gen.Tok == token.VAR:
		x.bindVolatile(d, d.Spec.Names, "")
	case d.Attach == analysis.AttachField && d.Trailing && d.Struct != nil && len(d.Field.Names) > 0:
		x.bindVolatile(d, d.Field.Names, d.Struct.Name.Name+".")
	case d.Attach == analysis.AttachFunc && x.facts.FuncOf(d.Func) != nil:
		x.bindFunc(d, x.facts.FuncOf(d.Func))
	default:
		x.diags.Reportf(d.Pos, RuleExtract, "//dur:%s is not attached to a declaration", d.Verb)
	}
}

func (x *checker) bindConst(d *analysis.Directive) {
	if d.Verb != "requires" {
		x.diags.Reportf(d.Pos, RuleExtract, "directive //dur:%s cannot bind to a constant", d.Verb)
		return
	}
	if len(d.Spec.Names) != 1 {
		x.diags.Reportf(d.Pos, RuleExtract, "//dur:requires must annotate a single constant")
		return
	}
	name := d.Spec.Names[0].Name
	cnst, ok := d.Pkg.Info.Defs[d.Spec.Names[0]].(*types.Const)
	if !ok || cnst.Val().Kind() != constant.String {
		x.diags.Reportf(d.Pos, RuleExtract, "//dur:requires must annotate a string constant")
		return
	}
	x.requires[cnst] = d.Args[0]
	x.pkgRequires[d.Pkg.Types] = true
	x.rep.Requires[name] = d.Args[0]
	x.rep.KindValue[name] = constant.StringVal(cnst.Val())
}

// bindVolatile marks the named vars or fields volatile, displayed with
// the given prefix ("Type." for fields).
func (x *checker) bindVolatile(d *analysis.Directive, names []*ast.Ident, prefix string) {
	if d.Verb != "volatile" {
		x.diags.Reportf(d.Pos, RuleExtract, "directive //dur:%s cannot bind to a field or variable", d.Verb)
		return
	}
	for _, name := range names {
		if obj := d.Pkg.Info.Defs[name]; obj != nil {
			x.volatiles[obj] = prefix + name.Name
			x.rep.Volatiles = append(x.rep.Volatiles, prefix+name.Name)
		}
	}
}

func (x *checker) bindFunc(d *analysis.Directive, fn *analysis.Func) {
	sum := x.sums[fn]
	switch d.Verb {
	case "handler":
		sum.isRoot = true
	case "writes":
		sum.annotated = true
		sum.writes = append(sum.writes, d.Args...)
		x.rep.Writes[fn.Name] = append(x.rep.Writes[fn.Name], d.Args...)
	case "applies":
		for po := range fn.ParamIdx {
			if po.Name() == d.Args[0] {
				sum.appliesParam = po
				sum.appliesName = d.Args[0]
			}
		}
		if sum.appliesParam == nil {
			x.diags.Reportf(d.Pos, RuleExtract, "//dur:applies names unknown parameter %q of %s", d.Args[0], fn.Name)
		}
	default:
		x.diags.Reportf(d.Pos, RuleExtract, "directive //dur:%s cannot bind to a function", d.Verb)
	}
}

// computeFacts fills the per-function classification: direct durable
// writes, send wrappers, volatile mutation, then one level of call
// summaries.
func (x *checker) computeFacts() {
	for _, fn := range x.facts.Funcs {
		sum := x.sums[fn]
		for _, c := range fn.Calls {
			if isStableMutator(c.Obj) || isWalMutator(c.Obj) {
				sum.directDurable = true
			}
			if c.IsDelete() && len(c.Expr.Args) > 0 && x.volatileTarget(fn, c.Expr.Args[0]) != "" {
				sum.mutatesVolatile = true
			}
			if idx, isSend := analysis.SendKindIndex(c.Obj); isSend && idx < len(c.Expr.Args) {
				if pidx := fn.ParamIndex(c.Expr.Args[idx]); pidx >= 0 {
					sum.sendWrapKindIdx = pidx
				}
			}
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if v, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range v.Lhs {
					if ie, ok := lhs.(*ast.IndexExpr); ok && x.volatileTarget(fn, ie.X) != "" {
						sum.mutatesVolatile = true
					}
				}
			}
			return true
		})
	}
	for _, fn := range x.facts.Funcs {
		sum := x.sums[fn]
		sum.reachesDurable = sum.directDurable
		for _, c := range fn.Calls {
			if callee := x.sums[c.Static]; callee != nil && (callee.annotated || callee.directDurable) {
				sum.reachesDurable = true
			}
		}
	}
}

// volatileTarget names the //dur:volatile object (or //dur:applies
// parameter) an expression resolves to, or "" when it is none.
func (x *checker) volatileTarget(fn *analysis.Func, e ast.Expr) string {
	var obj types.Object
	switch v := analysis.Unparen(e).(type) {
	case *ast.Ident:
		obj = fn.Pkg.Info.Uses[v]
		if obj == nil {
			obj = fn.Pkg.Info.Defs[v]
		}
	case *ast.SelectorExpr:
		obj = fn.Pkg.Info.Uses[v.Sel]
	}
	if obj == nil {
		return ""
	}
	if name, ok := x.volatiles[obj]; ok {
		return name
	}
	if sum := x.sums[fn]; sum.appliesParam != nil && obj == sum.appliesParam {
		return "parameter " + sum.appliesName
	}
	return ""
}

// validateWrites reports stale //dur:writes annotations: an asserted
// durable-write summary on a function that never reaches stable storage
// (directly or via one level of callees) is a lie the analysis would
// silently trust.
func (x *checker) validateWrites() {
	for _, fn := range x.facts.Funcs {
		if sum := x.sums[fn]; sum.annotated && !sum.reachesDurable {
			x.diags.Reportf(fn.Pkg.Fset.Position(fn.Decl.Name.Pos()), RuleSummary,
				"function %s declares //dur:writes %s but never reaches stable storage",
				fn.Name, strings.Join(sum.writes, " "))
		}
	}
}

// analysisSet is the functions the flow analysis walks: everything
// reachable from an analysis root through static calls, plus every
// function that mutates volatile state (the write-ahead rule holds even in
// packages with no handlers, e.g. internal/wal).
func (x *checker) analysisSet(roots []*analysis.Func) []*analysis.Func {
	in := map[*analysis.Func]bool{}
	for _, fn := range x.facts.Reachable(roots, false, nil) {
		in[fn] = true
	}
	var out []*analysis.Func
	for _, fn := range x.facts.Funcs {
		if sum := x.sums[fn]; in[fn] || sum.mutatesVolatile || sum.appliesParam != nil {
			out = append(out, fn)
		}
	}
	return out
}

// --- object classification helpers -----------------------------------------

// isStableMutator recognizes the stable.Store mutation API.
func isStableMutator(obj types.Object) bool {
	return analysis.IsMethodOn(obj, "internal/stable", "Store", "Put", "Delete", "Append", "TruncateLog")
}

// isWalMutator recognizes wal.Log mutators and the package-level
// wal.Resolve — durable writes of class "log".
func isWalMutator(obj types.Object) bool {
	if analysis.IsMethodOn(obj, "internal/wal", "Log", "Begin", "LoggedUpdate", "LoggedApply", "Commit", "Abort") {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "Resolve" || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil && strings.HasSuffix(fn.Pkg().Path(), "internal/wal")
}
