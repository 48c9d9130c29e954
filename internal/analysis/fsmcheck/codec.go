package fsmcheck

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"

	"speccat/internal/analysis"
)

// This file implements the codec-totality half of fsmcheck: every
// //fsm:encode switch must cover every constant of its type, every string
// it produces must round-trip through the matching //fsm:decode, and the
// decoder's default must surface an error instead of aliasing unknown
// bytes to a constant (the silent-corruption bug class the tpc sentinel
// errors removed).

// bindEncode registers a constant->string encoder. It must be a method;
// the constant set checked for totality is the receiver type's.
func (x *extractor) bindEncode(d *analysis.Directive) {
	pkg, fn := d.Pkg, d.Func
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		x.diags.Reportf(d.Pos, RuleExtract, "//fsm:encode must annotate a method on the encoded type")
		return
	}
	typ := pkg.Info.TypeOf(fn.Recv.List[0].Type)
	if typ == nil {
		return
	}
	half := &codecHalf{
		machine: d.Args[0], typ: typ, pkg: pkg,
		pos: pkg.Fset.Position(fn.Name.Pos()), name: fn.Name.Name,
		mapping: map[string]string{},
	}
	sw := firstSwitch(fn)
	if sw == nil {
		x.diags.Reportf(d.Pos, RuleExtract, "//fsm:encode function %s has no switch to extract", fn.Name.Name)
		return
	}
	for _, s := range sw.Body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok || cc.List == nil {
			continue
		}
		lit, ok := returnedString(pkg, cc.Body)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			obj := analysis.ObjectOf(pkg, e)
			if cnst, isConst := obj.(*types.Const); isConst {
				if _, dup := half.mapping[cnst.Name()]; !dup {
					half.mapping[cnst.Name()] = lit
					half.order = append(half.order, cnst.Name())
				}
			}
		}
	}
	x.encodes = append(x.encodes, half)
}

// bindDecode registers a string->constant decoder. Its result type pairs
// it with the encoder.
func (x *extractor) bindDecode(d *analysis.Directive) {
	pkg, fn := d.Pkg, d.Func
	if fn.Type.Results == nil || len(fn.Type.Results.List) == 0 {
		x.diags.Reportf(d.Pos, RuleExtract, "//fsm:decode must annotate a function returning the decoded type")
		return
	}
	typ := pkg.Info.TypeOf(fn.Type.Results.List[0].Type)
	if typ == nil {
		return
	}
	half := &codecHalf{
		machine: d.Args[0], typ: typ, pkg: pkg,
		pos: pkg.Fset.Position(fn.Name.Pos()), name: fn.Name.Name,
		mapping: map[string]string{},
	}
	sw := firstSwitch(fn)
	if sw == nil {
		x.diags.Reportf(d.Pos, RuleExtract, "//fsm:decode function %s has no switch to extract", fn.Name.Name)
		return
	}
	for _, s := range sw.Body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			half.hasDefault = true
			half.defaultErr = returnsError(pkg, cc.Body)
			continue
		}
		name, ok := returnedConst(pkg, cc.Body, typ)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if tv, isTV := pkg.Info.Types[e]; isTV && tv.Value != nil && tv.Value.Kind() == constant.String {
				lit := constant.StringVal(tv.Value)
				if _, dup := half.mapping[lit]; !dup {
					half.mapping[lit] = name
					half.order = append(half.order, lit)
				}
			}
		}
	}
	x.decodes = append(x.decodes, half)
}

// firstSwitch finds the function's top-level tagged switch.
func firstSwitch(fn *ast.FuncDecl) *ast.SwitchStmt {
	if fn.Body == nil {
		return nil
	}
	for _, s := range fn.Body.List {
		if sw, ok := s.(*ast.SwitchStmt); ok && sw.Tag != nil {
			return sw
		}
	}
	return nil
}

// returnedString extracts the string constant a case body returns.
func returnedString(pkg *analysis.Package, body []ast.Stmt) (string, bool) {
	for _, s := range body {
		r, ok := s.(*ast.ReturnStmt)
		if !ok || len(r.Results) == 0 {
			continue
		}
		if tv, ok := pkg.Info.Types[r.Results[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return constant.StringVal(tv.Value), true
		}
	}
	return "", false
}

// returnedConst extracts the name of the typ-typed constant a case body
// returns as its first result.
func returnedConst(pkg *analysis.Package, body []ast.Stmt, typ types.Type) (string, bool) {
	for _, s := range body {
		r, ok := s.(*ast.ReturnStmt)
		if !ok || len(r.Results) == 0 {
			continue
		}
		obj := analysis.ObjectOf(pkg, r.Results[0])
		if cnst, ok := obj.(*types.Const); ok && types.Identical(cnst.Type(), typ) {
			return cnst.Name(), true
		}
	}
	return "", false
}

// returnsError reports whether a default clause returns a non-nil error as
// its last result (as opposed to silently yielding a constant).
func returnsError(pkg *analysis.Package, body []ast.Stmt) bool {
	for _, s := range body {
		r, ok := s.(*ast.ReturnStmt)
		if !ok || len(r.Results) == 0 {
			continue
		}
		last := r.Results[len(r.Results)-1]
		if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		return true
	}
	return false
}

// pairCodecs matches encoders to decoders by Go type and runs the
// totality checks.
func (x *extractor) pairCodecs() {
	usedDecode := make([]bool, len(x.decodes))
	for _, enc := range x.encodes {
		var dec *codecHalf
		for i, d := range x.decodes {
			if !usedDecode[i] && types.Identical(d.typ, enc.typ) {
				dec = d
				usedDecode[i] = true
				break
			}
		}
		m := x.machine(enc.machine)
		codec := &Codec{
			Machine:   enc.machine,
			TypeName:  enc.typ.String(),
			EncodePos: enc.pos,
			Encodes:   enc.mapping,
			Decodes:   map[string]string{},
			Consts:    constsOfType(enc.pkg, enc.typ),
		}
		m.Codecs = append(m.Codecs, codec)
		if dec == nil {
			x.diags.Reportf(enc.pos, RuleCodec, "encoder %s has no matching //fsm:decode for type %s", enc.name, codec.TypeName)
			continue
		}
		codec.DecodePos = dec.pos
		codec.Decodes = dec.mapping
		x.checkCodec(codec, enc, dec)
	}
	for i, d := range x.decodes {
		if !usedDecode[i] {
			x.diags.Reportf(d.pos, RuleCodec, "decoder %s has no matching //fsm:encode for type %s", d.name, d.typ)
		}
	}
}

// checkCodec enforces totality and round-trip consistency on one pair.
func (x *extractor) checkCodec(codec *Codec, enc, dec *codecHalf) {
	for _, name := range codec.Consts {
		if _, ok := enc.mapping[name]; !ok {
			x.diags.Reportf(enc.pos, RuleCodec, "constant %s of %s has no case in encoder %s", name, codec.TypeName, enc.name)
		}
	}
	for _, name := range enc.order {
		lit := enc.mapping[name]
		back, ok := dec.mapping[lit]
		if !ok {
			x.diags.Reportf(dec.pos, RuleCodec, "encoding \"%s\" (for %s) has no case in decoder %s", lit, name, dec.name)
			continue
		}
		if back != name {
			x.diags.Reportf(dec.pos, RuleCodec, "encoding \"%s\" of %s decodes to %s; the pair does not round-trip", lit, name, back)
		}
	}
	if !dec.hasDefault || !dec.defaultErr {
		x.diags.Reportf(dec.pos, RuleCodec, "decoder %s maps unknown input to a constant instead of returning an error", dec.name)
	}
}

// constsOfType lists the constants of typ declared in the package, in
// source order.
func constsOfType(pkg *analysis.Package, typ types.Type) []string {
	type entry struct {
		name string
		pos  int
	}
	var entries []entry
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		if cnst, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(cnst.Type(), typ) {
			entries = append(entries, entry{name: name, pos: int(cnst.Pos())})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pos < entries[j].pos })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.name
	}
	return out
}
