package portcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"speccat/internal/analysis"
)

// simulatorPaths are the packages the rt boundary walls off: engines must
// reach time, randomness and the network only through internal/rt.
var simulatorPaths = map[string]bool{ //lint:allow noglobalstate immutable lookup table
	"speccat/internal/sim":    true,
	"speccat/internal/simnet": true,
}

// checker accumulates the cross-package facts of one Check.
type checker struct {
	facts *analysis.Facts
	rep   *Report
	diags analysis.Findings

	// engines are the //rt:engine packages.
	engines map[*analysis.Package]bool
	// sums holds this layer's summary of every engine function.
	sums map[*analysis.Func]*summary
	// confined are the role types (receivers of handler roots).
	confined map[*types.TypeName]bool
	// guards maps //rt:guard-annotated field objects to their kind.
	guards map[types.Object]string
	// requires maps //dur:requires-annotated kind constants to classes.
	requires map[types.Object]string
	// stateTypes are the named types whose constants carry //fsm:state:
	// assigning a field of such a type is an in-memory state transition.
	stateTypes map[*types.TypeName]bool
}

// summary is the per-function view of an engine function.
type summary struct {
	// sendWrapKindIdx is the parameter index this function forwards as a
	// send kind, or -1.
	sendWrapKindIdx int
	// assignsState reports a direct assignment to a state-typed field.
	assignsState bool
}

func newChecker(facts *analysis.Facts) *checker {
	return &checker{
		facts:      facts,
		rep:        &Report{Guards: map[string]string{}},
		engines:    map[*analysis.Package]bool{},
		sums:       map[*analysis.Func]*summary{},
		confined:   map[*types.TypeName]bool{},
		guards:     map[types.Object]string{},
		requires:   map[types.Object]string{},
		stateTypes: map[*types.TypeName]bool{},
	}
}

// check runs every pass and assembles the report.
func (x *checker) check() *Report {
	for _, d := range x.facts.Directives("rt") {
		x.bindDirective(d)
	}
	x.scanConsts()
	for _, fn := range x.facts.Funcs {
		if x.engines[fn.Pkg] {
			x.sums[fn] = &summary{sendWrapKindIdx: -1}
		}
	}
	var roots []*analysis.Func
	for _, fn := range x.facts.Roots("fsm:handler", "dur:handler") {
		if x.engines[fn.Pkg] {
			roots = append(roots, fn)
			x.rep.Roots = append(x.rep.Roots, fn.Name)
		}
	}
	for fn := range x.sums {
		x.computeFuncFacts(fn)
	}
	x.markConfined(roots)
	// Only functions reachable from the roots within the engines are
	// subject to confinement and send-order checks (constructor and
	// harness wiring runs before the event loops exist).
	reachable := x.facts.Reachable(roots, false, func(fn *analysis.Func) bool { return x.sums[fn] != nil })
	x.rep.Analyzed = len(reachable)
	for _, pkg := range x.facts.Pkgs {
		if x.engines[pkg] {
			x.checkBoundary(pkg)
		}
	}
	for _, fn := range reachable {
		x.checkConfine(fn)
		x.checkSendOrder(fn)
	}
	sort.Strings(x.rep.Engines)
	sort.Strings(x.rep.Confined)
	sort.Strings(x.rep.Roots)
	return x.rep
}

// bindDirective binds one //rt:* directive — //rt:engine in the package
// doc, //rt:guard on a struct field — and reports misplaced, malformed
// and unknown ones as rt-extract findings.
func (x *checker) bindDirective(d *analysis.Directive) {
	switch d.Verb {
	case "engine":
		if d.Attach != analysis.AttachPackage {
			x.diags.Reportf(d.Pos, RuleExtract, "//rt:engine must appear in the package doc comment")
			return
		}
		if len(d.Args) != 0 {
			x.diags.Reportf(d.Pos, RuleExtract, "malformed //rt:engine: takes no arguments, got %q", d.Rest)
			return
		}
		if !x.engines[d.Pkg] {
			x.engines[d.Pkg] = true
			x.rep.Engines = append(x.rep.Engines, d.Pkg.ImportPath)
		}
	case "guard":
		if d.Attach != analysis.AttachField || len(d.Field.Names) == 0 {
			x.diags.Reportf(d.Pos, RuleExtract, "//rt:guard must trail a struct field declaration")
			return
		}
		if len(d.Args) < 2 {
			x.diags.Reportf(d.Pos, RuleExtract, "malformed //rt:guard: want //rt:guard <mutex|channel|loop> <reason>")
			return
		}
		if !guardKinds[d.Args[0]] {
			x.diags.Reportf(d.Pos, RuleExtract, "unknown //rt:guard kind %q: want mutex, channel or loop", d.Args[0])
			return
		}
		if obj := d.Pkg.Info.Defs[d.Field.Names[0]]; obj != nil {
			x.guards[obj] = d.Args[0]
			x.rep.Guards[guardDisplayName(d.Pkg, obj)] = d.Args[0]
		}
	default:
		x.diags.Reportf(d.Pos, RuleExtract, "unknown directive //rt:%s", d.Verb)
	}
}

// guardDisplayName renders a guarded field as "Type.field" (falling back
// to the bare field name for fields of unnamed types).
func guardDisplayName(pkg *analysis.Package, obj types.Object) string {
	// The owning struct is found by scanning the package scope for a named
	// type whose struct fields include obj.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == obj {
				return tn.Name() + "." + obj.Name()
			}
		}
	}
	return obj.Name()
}

// scanConsts reads the //dur:requires and //fsm:state line comments of
// the engines' constants: the former mark the kinds whose sends advertise
// a durable protocol step, the latter identify the state-machine types.
func (x *checker) scanConsts() {
	for _, layer := range []string{"dur", "fsm"} {
		for _, d := range x.facts.Directives(layer) {
			if !x.engines[d.Pkg] || d.Attach != analysis.AttachValue || !d.Trailing || d.Gen.Tok != token.CONST || len(d.Spec.Names) == 0 {
				continue
			}
			obj := d.Pkg.Info.Defs[d.Spec.Names[0]]
			if obj == nil {
				continue
			}
			switch d.Key() {
			case "dur:requires":
				if len(d.Args) > 0 {
					x.requires[obj] = d.Args[0]
				}
			case "fsm:state":
				if named, ok := obj.Type().(*types.Named); ok {
					x.stateTypes[named.Obj()] = true
				}
			}
		}
	}
}

// receiverNamed unwraps a (possibly pointer) type to its type name.
func receiverNamed(t types.Type) *types.TypeName {
	if named := analysis.NamedOf(t); named != nil {
		return named.Obj()
	}
	return nil
}

// computeFuncFacts fills the per-function classification: send-wrapper
// kind forwarding and direct state-transition assignments.
func (x *checker) computeFuncFacts(fn *analysis.Func) {
	sum := x.sums[fn]
	for _, c := range fn.Calls {
		if idx, isSend := analysis.SendKindIndex(c.Obj); isSend && idx < len(c.Expr.Args) {
			if pidx := fn.ParamIndex(c.Expr.Args[idx]); pidx >= 0 {
				sum.sendWrapKindIdx = pidx
			}
		}
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if v, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range v.Lhs {
				if x.isStateField(fn.Pkg, lhs) {
					sum.assignsState = true
				}
			}
		}
		return true
	})
}

// isStateField reports whether expr is a selector onto a field of a
// state-machine type (one whose constants carry //fsm:state).
func (x *checker) isStateField(pkg *analysis.Package, expr ast.Expr) bool {
	sel, ok := analysis.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	named, ok := obj.Type().(*types.Named)
	return ok && x.stateTypes[named.Obj()]
}

// markConfined records the receiver types of the handler roots.
func (x *checker) markConfined(roots []*analysis.Func) {
	for _, fn := range roots {
		if fn.Recv != nil && !x.confined[fn.Recv.Obj()] {
			x.confined[fn.Recv.Obj()] = true
			x.rep.Confined = append(x.rep.Confined, fn.Pkg.Types.Name()+"."+fn.Recv.Obj().Name())
		}
	}
}
