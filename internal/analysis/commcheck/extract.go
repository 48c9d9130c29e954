package commcheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// opDecl is one //comm:op-annotated function.
type opDecl struct {
	pkg   *analysis.Package
	fn    *ast.FuncDecl
	class string
	name  string
	pos   token.Position
}

// matrixDecl is one //comm:matrix-annotated compatibility matrix.
type matrixDecl struct {
	pkg  *analysis.Package
	file string
	lit  *ast.CompositeLit
	pos  token.Position
}

type extractor struct {
	facts *analysis.Facts
	diags analysis.Findings

	// classVal maps each //comm:mode-bound class to its mode constant's
	// value; classConst to the constant's name; modeClass inverts classVal.
	classVal   map[string]int64
	classConst map[string]string
	modeClass  map[int64]string

	ops      []opDecl
	matrices []matrixDecl
}

func newExtractor(facts *analysis.Facts) *extractor {
	return &extractor{
		facts:      facts,
		classVal:   map[string]int64{},
		classConst: map[string]string{},
		modeClass:  map[int64]string{},
	}
}

func (x *extractor) extract() *Report {
	for _, d := range x.facts.Directives("comm") {
		x.attach(d)
	}
	rep := &Report{
		Classes: map[string]string{},
		Ops:     map[string]string{},
	}
	for c, name := range x.classConst {
		rep.Classes[c] = name
	}
	// Validate op classes now that every //comm:mode is collected.
	classes := x.classes()
	for _, op := range x.ops {
		if _, ok := x.classVal[op.class]; !ok {
			x.diags.Reportf(op.pos, RuleExtract,
				"//comm:op names unknown class %q (no //comm:mode binds it; known: %s)",
				op.class, strings.Join(classes, ", "))
			continue
		}
		rep.Ops[op.name] = op.class
	}
	// Derive the reference matrix from each annotated spec and compare.
	var derived *DerivedMatrix
	for _, md := range x.matrices {
		rep.Matrices = append(rep.Matrices, md.file)
		d := x.checkMatrix(md, classes, rep)
		if d != nil {
			rep.Proofs += d.Proofs
			derived = d
		}
	}
	// Check every Acquire site of every annotated op against its class.
	for _, op := range x.ops {
		if _, ok := x.classVal[op.class]; !ok {
			continue // already reported above
		}
		x.checkOp(op, derived, classes, rep)
	}
	return rep
}

// attach binds one directive by its attachment point: op in a function
// doc, mode trailing a constant, matrix in a var's doc. A suppression
// needs only a reason, wherever it sits.
func (x *extractor) attach(d *analysis.Directive) {
	if d.Verb == "ignore" {
		if d.Rest == "" {
			x.diags.Reportf(d.Pos, RuleExtract, "//comm:ignore needs a reason")
		}
		return
	}
	switch d.Attach {
	case analysis.AttachFunc:
		x.attachFunc(d)
	case analysis.AttachDecl:
		if d.Gen.Tok == token.VAR && len(d.Gen.Specs) == 1 {
			if vs, ok := d.Gen.Specs[0].(*ast.ValueSpec); ok {
				x.attachSpec(d, vs)
				return
			}
		}
		x.diags.Reportf(d.Pos, RuleExtract, "//comm:%s directive on an unsupported declaration", d.Verb)
	case analysis.AttachValue:
		x.attachSpec(d, d.Spec)
	default:
		switch d.Verb {
		case "op", "mode", "matrix":
			x.diags.Reportf(d.Pos, RuleExtract,
				"unattached //comm:%s directive (op goes in a function doc, mode trails a Mode constant, matrix goes in the matrix var's doc)", d.Verb)
		default:
			x.diags.Reportf(d.Pos, RuleExtract, "unknown directive //comm:%s", d.Verb)
		}
	}
}

// attachFunc handles directives in a function's doc comment.
func (x *extractor) attachFunc(dir *analysis.Directive) {
	if dir.Verb != "op" {
		x.diags.Reportf(dir.Pos, RuleExtract, "//comm:%s does not belong in a function doc (want //comm:op)", dir.Verb)
		return
	}
	if len(dir.Args) != 1 {
		x.diags.Reportf(dir.Pos, RuleExtract, "//comm:op wants exactly one class argument")
		return
	}
	fn := dir.Func
	x.ops = append(x.ops, opDecl{
		pkg: dir.Pkg, fn: fn, class: dir.Args[0], name: analysis.DisplayName(fn),
		pos: dir.Pkg.Fset.Position(fn.Pos()),
	})
}

// attachSpec handles directives attached to one const/var spec.
func (x *extractor) attachSpec(dir *analysis.Directive, vs *ast.ValueSpec) {
	pkg, d := dir.Pkg, dir.Gen
	switch dir.Verb {
	case "mode":
		if d.Tok != token.CONST {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:mode must trail a Mode constant declaration")
			return
		}
		if len(dir.Args) != 1 {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:mode wants exactly one class argument")
			return
		}
		if len(vs.Names) != 1 {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:mode must trail a single-constant declaration")
			return
		}
		obj, ok := pkg.Info.Defs[vs.Names[0]].(*types.Const)
		if !ok {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:mode on %s: not a constant", vs.Names[0].Name)
			return
		}
		val, ok := constant.Int64Val(obj.Val())
		if !ok {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:mode on %s: not an integer mode", vs.Names[0].Name)
			return
		}
		class := dir.Args[0]
		if prev, dup := x.classVal[class]; dup && prev != val {
			x.diags.Reportf(dir.Pos, RuleExtract,
				"class %s bound to conflicting modes (%s=%d vs %s=%d)",
				class, x.classConst[class], prev, vs.Names[0].Name, val)
			return
		}
		if prevClass, dup := x.modeClass[val]; dup && prevClass != class {
			x.diags.Reportf(dir.Pos, RuleExtract,
				"mode %s already bound to class %s", vs.Names[0].Name, prevClass)
			return
		}
		x.classVal[class] = val
		x.classConst[class] = vs.Names[0].Name
		x.modeClass[val] = class
	case "matrix":
		if len(dir.Args) != 1 {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:matrix wants exactly one spec-file argument")
			return
		}
		if len(vs.Values) != 1 {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:matrix must annotate a single matrix literal")
			return
		}
		lit, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			x.diags.Reportf(dir.Pos, RuleExtract, "//comm:matrix value must be a map composite literal")
			return
		}
		x.matrices = append(x.matrices, matrixDecl{
			pkg: pkg, file: dir.Args[0], lit: lit,
			pos: pkg.Fset.Position(vs.Pos()),
		})
	default:
		x.diags.Reportf(dir.Pos, RuleExtract, "//comm:%s does not belong on a declaration (want mode or matrix)", dir.Verb)
	}
}

// classes returns the annotated class names, sorted.
func (x *extractor) classes() []string {
	out := make([]string, 0, len(x.classVal))
	for c := range x.classVal {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// checkMatrix derives the reference matrix from the annotated spec file
// and compares the Go literal against it, ordered entry by ordered entry.
func (x *extractor) checkMatrix(md matrixDecl, classes []string, rep *Report) *DerivedMatrix {
	src, err := os.ReadFile(filepath.Join(md.pkg.Dir, filepath.FromSlash(md.file)))
	if err != nil {
		x.diags.Reportf(md.pos, RuleExtract, "//comm:matrix spec unreadable: %v", err)
		return nil
	}
	derived, err := Derive(string(src), classes)
	if err != nil {
		x.diags.Reportf(md.pos, RuleExtract, "//comm:matrix spec %s: %v", md.file, err)
		return nil
	}
	gm, ok := x.goMatrix(md)
	if !ok {
		return derived
	}
	for _, a := range classes {
		for _, b := range classes {
			rep.Entries++
			g := gm[x.classVal[a]][x.classVal[b]]
			e := derived.Compatible[a][b]
			switch {
			case g && !e:
				x.diags.Reportf(md.pos, RuleMatrix,
					"matrix marks (%s, %s) compatible but %s has no discharged Safe theorem for the pair",
					a, b, md.file)
			case !g && e:
				x.diags.Reportf(md.pos, RuleMatrix,
					"matrix marks (%s, %s) conflicting but %s discharges Safe%s%s",
					a, b, md.file, a, b)
			}
		}
	}
	return derived
}

// goMatrix evaluates the matrix composite literal into mode-value form.
func (x *extractor) goMatrix(md matrixDecl) (map[int64]map[int64]bool, bool) {
	out := map[int64]map[int64]bool{}
	for _, elt := range md.lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			x.diags.Reportf(md.pos, RuleExtract, "matrix literal entry is not key: value")
			return nil, false
		}
		key, ok := x.constInt(md.pkg, kv.Key)
		if !ok {
			x.diags.Reportf(md.pkg.Fset.Position(kv.Key.Pos()), RuleExtract, "matrix key is not a constant mode")
			return nil, false
		}
		if _, bound := x.modeClass[key]; !bound {
			x.diags.Reportf(md.pkg.Fset.Position(kv.Key.Pos()), RuleExtract, "matrix key has no //comm:mode binding")
			return nil, false
		}
		row, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			x.diags.Reportf(md.pkg.Fset.Position(kv.Value.Pos()), RuleExtract, "matrix row is not a map literal")
			return nil, false
		}
		if out[key] == nil {
			out[key] = map[int64]bool{}
		}
		for _, relt := range row.Elts {
			rkv, ok := relt.(*ast.KeyValueExpr)
			if !ok {
				x.diags.Reportf(md.pkg.Fset.Position(relt.Pos()), RuleExtract, "matrix row entry is not key: value")
				return nil, false
			}
			rkey, ok := x.constInt(md.pkg, rkv.Key)
			if !ok {
				x.diags.Reportf(md.pkg.Fset.Position(rkv.Key.Pos()), RuleExtract, "matrix row key is not a constant mode")
				return nil, false
			}
			if _, bound := x.modeClass[rkey]; !bound {
				x.diags.Reportf(md.pkg.Fset.Position(rkv.Key.Pos()), RuleExtract, "matrix row key has no //comm:mode binding")
				return nil, false
			}
			tv, defined := md.pkg.Info.Types[rkv.Value]
			if !defined || tv.Value == nil || tv.Value.Kind() != constant.Bool {
				x.diags.Reportf(md.pkg.Fset.Position(rkv.Value.Pos()), RuleExtract, "matrix entry is not a boolean constant")
				return nil, false
			}
			out[key][rkey] = constant.BoolVal(tv.Value)
		}
	}
	return out, true
}

// constInt resolves an expression to its integer constant value.
func (x *extractor) constInt(pkg *analysis.Package, e ast.Expr) (int64, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// checkOp walks one annotated op function and checks every
// locking.Manager.Acquire call's mode against the op's class.
func (x *extractor) checkOp(op opDecl, derived *DerivedMatrix, classes []string, rep *Report) {
	if op.fn.Body == nil {
		return
	}
	required := x.classVal[op.class]
	ast.Inspect(op.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !x.isAcquire(op.pkg, call) {
			return true
		}
		rep.AcquireSites++
		pos := op.pkg.Fset.Position(call.Pos())
		mode, isConst := x.constInt(op.pkg, call.Args[2])
		if !isConst {
			x.diags.Reportf(pos, RuleExtract,
				"non-constant lock mode in %s-class op %s; commcheck cannot verify it", op.class, op.name)
			return true
		}
		if mode == required {
			return true
		}
		modeClass, bound := x.modeClass[mode]
		if !bound {
			x.diags.Reportf(pos, RuleExtract,
				"%s acquires a mode with no //comm:mode binding", op.name)
			return true
		}
		if derived == nil {
			x.diags.Reportf(pos, RuleExtract,
				"%s acquires %s for class %s but no //comm:matrix spec is available to judge it",
				op.name, x.classConst[modeClass], op.class)
			return true
		}
		if derived.protects(modeClass, op.class, classes) {
			x.diags.Reportf(pos, RuleOverlock,
				"%s-class op %s acquires %s; the discharged matrix licenses %s (overlocking forfeits the proved commutativity)",
				op.class, op.name, x.classConst[modeClass], x.classConst[op.class])
			return true
		}
		witness := ""
		for _, d := range classes {
			if derived.Compatible[modeClass][d] && !derived.Compatible[op.class][d] {
				witness = d
				break
			}
		}
		x.diags.Reportf(pos, RuleUnderlock,
			"%s-class op %s acquires %s, which admits concurrent %s-class holders that do not commute with %s",
			op.class, op.name, x.classConst[modeClass], witness, op.class)
		return true
	})
}

// isAcquire recognizes calls to locking.Manager.Acquire (by type, so
// embedding and fixture aliases resolve correctly).
func (x *extractor) isAcquire(pkg *analysis.Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Acquire" || len(call.Args) != 4 {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "internal/locking")
}
