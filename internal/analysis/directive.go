package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// directiveLayers are the comment-directive prefixes of the analysis
// layers, each written "//<layer>:<verb> <args>": the design-rule
// suppressions (lint), the state-machine extraction (fsm), durability
// ordering (dur), the runtime boundary (rt), commutativity (comm) and lock
// discipline (lock).
var directiveLayers = []string{"lint", "fsm", "dur", "rt", "comm", "lock"} //lint:allow noglobalstate immutable lookup table

// Directive is one parsed //<layer>:<verb> annotation together with the
// declaration its comment belongs to.
type Directive struct {
	// Layer is the directive's prefix without the colon ("fsm", "dur", ...).
	Layer string
	Verb  string
	Args  []string
	// Rest is the raw argument text (reason-bearing verbs keep spaces).
	Rest string
	Pos  token.Position
	Pkg  *Package

	// Attach says where the comment sits; the node fields it names are set.
	Attach Attach
	// Trailing marks a line comment after a value spec or struct field
	// (rather than the doc comment above it).
	Trailing bool
	// Func is the function whose doc holds the comment (AttachFunc).
	Func *ast.FuncDecl
	// Gen is the top-level declaration whose doc holds the comment
	// (AttachDecl), or that declares Spec (AttachValue).
	Gen  *ast.GenDecl
	Spec *ast.ValueSpec
	// Field is the struct field the comment documents or trails
	// (AttachField); Struct is the top-level type declaration whose struct
	// lists it directly, nil for fields of nested or anonymous structs.
	Field  *ast.Field
	Struct *ast.TypeSpec
}

// Attach classifies the declaration a directive comment is attached to.
type Attach int

// The attachment points a directive comment can have.
const (
	// AttachNone is a comment attached to no declaration (a statement
	// comment, a stray comment group).
	AttachNone Attach = iota
	// AttachPackage is the file's package doc comment.
	AttachPackage
	// AttachFunc is a top-level function's doc comment.
	AttachFunc
	// AttachDecl is a top-level const, var, type or import declaration's
	// doc comment.
	AttachDecl
	// AttachValue is a top-level const or var spec's doc or line comment.
	AttachValue
	// AttachField is a struct field's doc or line comment.
	AttachField
)

// Key renders the directive as "layer:verb".
func (d *Directive) Key() string { return d.Layer + ":" + d.Verb }

// ParseDirectives extracts the directives of one comment. A comment is a
// directive comment iff it BEGINS with a known layer prefix — prose that
// merely mentions "//fsm:..." mid-line is not one. One directive comment
// may carry directives of several layers separated by "//", e.g.
// "//fsm:msg tpc coordinator //dur:requires state"; every segment belongs
// to the layer it names, whichever layer leads, and a segment naming no
// layer (a trailing "// want ..." note) is skipped.
func ParseDirectives(text string) []Directive {
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if layerOf(body) == "" {
		return nil
	}
	var out []Directive
	for _, seg := range strings.Split(body, "//") {
		seg = strings.TrimSpace(seg)
		layer := layerOf(seg)
		if layer == "" {
			continue
		}
		verb, args, _ := strings.Cut(seg[len(layer)+1:], " ")
		args = strings.TrimSpace(args)
		out = append(out, Directive{Layer: layer, Verb: verb, Args: strings.Fields(args), Rest: args})
	}
	return out
}

// layerOf returns the layer whose "<layer>:" prefix s starts with, or "".
func layerOf(s string) string {
	for _, l := range directiveLayers {
		if strings.HasPrefix(s, l+":") {
			return l
		}
	}
	return ""
}

// fileDirectives parses every directive comment of one file and records
// each comment group's attachment point.
func fileDirectives(pkg *Package, f *ast.File) []*Directive {
	at := map[*ast.CommentGroup]Directive{}
	if f.Doc != nil {
		at[f.Doc] = Directive{Attach: AttachPackage}
	}
	fieldsOf := func(st *ast.StructType, ts *ast.TypeSpec) {
		for _, field := range st.Fields.List {
			if _, seen := at[field.Comment]; field.Comment != nil && !seen {
				at[field.Comment] = Directive{Attach: AttachField, Trailing: true, Field: field, Struct: ts}
			}
			if _, seen := at[field.Doc]; field.Doc != nil && !seen {
				at[field.Doc] = Directive{Attach: AttachField, Field: field, Struct: ts}
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Doc != nil {
				at[d.Doc] = Directive{Attach: AttachFunc, Func: d}
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				at[d.Doc] = Directive{Attach: AttachDecl, Gen: d}
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					if s.Doc != nil {
						at[s.Doc] = Directive{Attach: AttachValue, Gen: d, Spec: s}
					}
					if s.Comment != nil {
						at[s.Comment] = Directive{Attach: AttachValue, Trailing: true, Gen: d, Spec: s}
					}
				case *ast.TypeSpec:
					if st, ok := s.Type.(*ast.StructType); ok {
						fieldsOf(st, s)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok && st.Fields != nil {
			fieldsOf(st, nil)
		}
		return true
	})
	var out []*Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, d := range ParseDirectives(c.Text) {
				a := at[cg]
				a.Layer, a.Verb, a.Args, a.Rest = d.Layer, d.Verb, d.Args, d.Rest
				a.Pos, a.Pkg = pkg.Fset.Position(c.Pos()), pkg
				out = append(out, &a)
			}
		}
	}
	return out
}
