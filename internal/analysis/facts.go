package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Facts is the fact base the analysis layers share: computed once per load
// from the already type-checked packages, it holds every parsed directive
// with its attachment, an index of the function declarations, and the call
// graph between them (static edges plus interface-bridged ones). A layer
// is a rule catalogue over these facts; what only one layer needs (its
// per-function summaries, its dataflow lattice) stays in the layer.
type Facts struct {
	Pkgs []*Package
	// Funcs are the function declarations with bodies, ordered by file
	// name and position.
	Funcs []*Func

	byLayer map[string][]*Directive
	// byLine indexes directives by file and line, for suppressions.
	byLine map[string]map[int][]*Directive
	byObj  map[types.Object]*Func
	byDecl map[*ast.FuncDecl]*Func
	callAt map[*ast.CallExpr]*Call
}

// Func is the fact sheet of one function declaration.
type Func struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  types.Object
	// Name is the display name, receiver-qualified for methods
	// ("Type.Method").
	Name string
	// Recv is the named receiver type (pointers dereferenced), nil for
	// plain functions.
	Recv *types.Named
	// ParamIdx maps the named parameters to their flattened argument
	// positions.
	ParamIdx map[types.Object]int
	// Doc holds the directives of the function's doc comment.
	Doc []*Directive
	// Calls are the body's call sites in source order, function literals
	// included.
	Calls []*Call
}

// Call is one call site with its resolved callees.
type Call struct {
	Expr *ast.CallExpr
	// Obj is the called object (see ObjectOf), nil for dynamic calls.
	Obj types.Object
	// Static is the called declaration when the load declares it.
	Static *Func
	// Bridged are, for a call through an interface method, the load's
	// methods of the same name on types implementing that interface.
	Bridged []*Func
}

// IsDelete reports whether the call is to the delete builtin.
func (c *Call) IsDelete() bool {
	b, ok := c.Obj.(*types.Builtin)
	return ok && b.Name() == "delete"
}

// Callees returns the declarations a call may reach in the load: its
// static callee, or the interface-bridged implementations.
func (c *Call) Callees() []*Func {
	if c.Static != nil {
		return []*Func{c.Static}
	}
	return c.Bridged
}

// NewFacts builds the fact base of the loaded packages.
func NewFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Pkgs:    pkgs,
		byLayer: map[string][]*Directive{},
		byLine:  map[string]map[int][]*Directive{},
		byObj:   map[types.Object]*Func{},
		byDecl:  map[*ast.FuncDecl]*Func{},
		callAt:  map[*ast.CallExpr]*Call{},
	}
	var directives []*Directive
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range fileDirectives(pkg, file) {
				directives = append(directives, d)
				f.byLayer[d.Layer] = append(f.byLayer[d.Layer], d)
				lines := f.byLine[d.Pos.Filename]
				if lines == nil {
					lines = map[int][]*Directive{}
					f.byLine[d.Pos.Filename] = lines
				}
				lines[d.Pos.Line] = append(lines[d.Pos.Line], d)
			}
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					if obj := pkg.Info.Defs[fn.Name]; obj != nil {
						f.Funcs = append(f.Funcs, newFunc(pkg, fn, obj))
					}
				}
			}
		}
	}
	sort.SliceStable(f.Funcs, func(i, j int) bool {
		a := f.Funcs[i].Pkg.Fset.Position(f.Funcs[i].Decl.Pos())
		b := f.Funcs[j].Pkg.Fset.Position(f.Funcs[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, fn := range f.Funcs {
		f.byObj[fn.Obj] = fn
		f.byDecl[fn.Decl] = fn
	}
	for _, d := range directives {
		if fn := f.byDecl[d.Func]; fn != nil {
			fn.Doc = append(fn.Doc, d)
		}
	}
	f.buildCallGraph()
	return f
}

func newFunc(pkg *Package, decl *ast.FuncDecl, obj types.Object) *Func {
	fn := &Func{Pkg: pkg, Decl: decl, Obj: obj, Name: DisplayName(decl), ParamIdx: map[types.Object]int{}}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		fn.Recv = NamedOf(sig.Recv().Type())
	}
	idx := 0
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				if po := pkg.Info.Defs[name]; po != nil {
					fn.ParamIdx[po] = idx
				}
				idx++
			}
		}
	}
	return fn
}

// DisplayName names a function declaration, receiver-qualified for
// methods ("Type.Method").
func DisplayName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return decl.Name.Name
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + decl.Name.Name
	}
	return decl.Name.Name
}

// buildCallGraph resolves every call site of every indexed function.
func (f *Facts) buildCallGraph() {
	byName := map[string][]*Func{}
	for _, fn := range f.Funcs {
		if fn.Recv != nil {
			byName[fn.Decl.Name.Name] = append(byName[fn.Decl.Name.Name], fn)
		}
	}
	bridged := map[types.Object][]*Func{}
	for _, fn := range f.Funcs {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			expr, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			c := &Call{Expr: expr, Obj: ObjectOf(fn.Pkg, expr.Fun)}
			c.Static = f.byObj[c.Obj]
			if c.Static == nil && c.Obj != nil {
				impls, done := bridged[c.Obj]
				if !done {
					impls = implementations(c.Obj, byName)
					bridged[c.Obj] = impls
				}
				c.Bridged = impls
			}
			fn.Calls = append(fn.Calls, c)
			f.callAt[expr] = c
			return true
		})
	}
}

// implementations returns, for an interface method, the same-named
// methods whose receiver type (or its pointer) implements the interface.
func implementations(obj types.Object, byName map[string][]*Func) []*Func {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Func
	for _, m := range byName[fn.Name()] {
		if types.Implements(m.Recv, iface) || types.Implements(types.NewPointer(m.Recv), iface) {
			out = append(out, m)
		}
	}
	return out
}

// Directives returns the directives of one layer in source order.
func (f *Facts) Directives(layer string) []*Directive { return f.byLayer[layer] }

// FuncOf returns the indexed function of a declaration, nil for a
// declaration without a body.
func (f *Facts) FuncOf(decl *ast.FuncDecl) *Func { return f.byDecl[decl] }

// CallOf returns the resolved call site of a call expression inside an
// indexed function body.
func (f *Facts) CallOf(expr *ast.CallExpr) *Call { return f.callAt[expr] }

// Roots returns, in order, the functions whose doc carries a directive
// with one of the given "layer:verb" keys.
func (f *Facts) Roots(keys ...string) []*Func {
	var out []*Func
	for _, fn := range f.Funcs {
	doc:
		for _, d := range fn.Doc {
			for _, k := range keys {
				if d.Key() == k {
					out = append(out, fn)
					break doc
				}
			}
		}
	}
	return out
}

// Reachable returns, in order, the roots and every function they reach
// through static calls, and through interface-bridged calls too when
// bridged is set. A non-nil within confines the walk to the functions it
// accepts.
func (f *Facts) Reachable(roots []*Func, bridged bool, within func(*Func) bool) []*Func {
	seen := map[*Func]bool{}
	queue := append([]*Func(nil), roots...)
	for _, fn := range roots {
		seen[fn] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, c := range fn.Calls {
			callees := []*Func{c.Static}
			if bridged {
				callees = c.Callees()
			}
			for _, callee := range callees {
				if callee != nil && !seen[callee] && (within == nil || within(callee)) {
					seen[callee] = true
					queue = append(queue, callee)
				}
			}
		}
	}
	var out []*Func
	for _, fn := range f.Funcs {
		if seen[fn] {
			out = append(out, fn)
		}
	}
	return out
}

// ParamIndex returns the flattened parameter index of the function
// parameter e names, or -1 when e is not a bare parameter reference.
func (fn *Func) ParamIndex(e ast.Expr) int {
	if id, ok := Unparen(e).(*ast.Ident); ok {
		if idx, isParam := fn.ParamIdx[fn.Pkg.Info.Uses[id]]; isParam {
			return idx
		}
	}
	return -1
}

// Suppressed reports whether a reasoned suppression directive with the
// given "layer:verb" key sits on the diagnostic's line or the line above
// it. A //lint:allow covers only the rule it names; any other suppression
// verb covers every rule its caller filters with it.
func (f *Facts) Suppressed(d Diagnostic, key string) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, s := range f.byLine[d.Pos.Filename][line] {
			if s.Key() != key || s.Rest == "" {
				continue
			}
			if s.Layer == "lint" && (len(s.Args) < 2 || s.Args[0] != d.Rule) {
				continue
			}
			return true
		}
	}
	return false
}

// Unsuppressed returns the diagnostics no reasoned key directive covers.
func (f *Facts) Unsuppressed(diags []Diagnostic, key string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !f.Suppressed(d, key) {
			out = append(out, d)
		}
	}
	return out
}

// SortDiagnostics orders diagnostics by position, then rule and message.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// Unparen strips any enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ObjectOf resolves an identifier or selector expression (parentheses
// stripped) to the object it uses: a call's callee, a named constant.
func ObjectOf(pkg *Package, e ast.Expr) types.Object {
	switch v := Unparen(e).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[v]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[v.Sel]
	}
	return nil
}

// IsMethodOn reports whether obj is one of the named methods of the named
// type typeName declared in a package whose import path ends in
// pkgSuffix. Interface methods match too: an interface method's receiver
// type is the named interface.
func IsMethodOn(obj types.Object, pkgSuffix, typeName string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := NamedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	tn := named.Obj()
	if tn.Name() != typeName || tn.Pkg() == nil || !strings.HasSuffix(tn.Pkg().Path(), pkgSuffix) {
		return false
	}
	for _, name := range names {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// NamedOf unwraps a (possibly pointer) type to its named type.
func NamedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
