package durcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speccat/internal/analysis"
)

// flowState is the must-available durable-write information at one program
// point: avail[class] holds when a durable write of class dominates the
// point on every path. The pseudo-class "" means "some durable write"
// (what the volatile rule needs); "fn:<name>" marks an unannotated
// durable-write callee (what dur-summary reports at requiring sends).
type flowState struct {
	avail map[string]bool
	// killedAt remembers, per class, the branch that lost it at a join —
	// the position findings blame when the write exists on another path.
	killedAt map[string]token.Pos
}

func newFlowState() *flowState {
	return &flowState{avail: map[string]bool{}, killedAt: map[string]token.Pos{}}
}

// Clone implements analysis.State.
func (s *flowState) Clone() *flowState {
	c := &flowState{
		avail:    make(map[string]bool, len(s.avail)),
		killedAt: make(map[string]token.Pos, len(s.killedAt)),
	}
	for k, v := range s.avail {
		c.avail[k] = v
	}
	for k, v := range s.killedAt {
		c.killedAt[k] = v
	}
	return c
}

func (s *flowState) gen(classes ...string) {
	for _, cls := range classes {
		s.avail[cls] = true
		delete(s.killedAt, cls)
	}
}

// Join implements analysis.State: the intersection of the live branches,
// recording which branch killed each class that only some paths provide.
func (s *flowState) Join(live []*flowState, livePos []token.Pos) {
	inter := map[string]bool{}
	for cls := range live[0].avail {
		all := true
		for _, b := range live[1:] {
			if !b.avail[cls] {
				all = false
				break
			}
		}
		if all {
			inter[cls] = true
		}
	}
	killed := map[string]token.Pos{}
	for _, b := range live {
		for cls, p := range b.killedAt {
			if _, ok := killed[cls]; !ok {
				killed[cls] = p
			}
		}
	}
	for _, b := range live {
		for cls := range b.avail {
			if inter[cls] {
				continue
			}
			if _, ok := killed[cls]; ok {
				continue
			}
			for j, ob := range live {
				if !ob.avail[cls] {
					killed[cls] = livePos[j]
					break
				}
			}
		}
	}
	for cls := range inter {
		delete(killed, cls)
	}
	s.avail = inter
	s.killedAt = killed
}

// flow walks one function with must-available durable-write states,
// checking requiring sends and volatile writes as it goes. Each function
// is analyzed once from an empty in-state: durable writes performed by a
// caller before the call do not excuse ordering inside the callee (the
// callee may also be entered from a path without them).
type flow struct {
	x   *checker
	pkg *analysis.Package
	fn  *analysis.Func
	// varKinds maps a local variable to every string constant assigned to
	// it anywhere in the function; a send through the variable must satisfy
	// the requirements of all of them (flow-insensitively — conservative
	// for requiring kinds).
	varKinds map[types.Object][]types.Object
}

func newFlow(x *checker, fn *analysis.Func) *flow {
	return &flow{x: x, pkg: fn.Pkg, fn: fn, varKinds: analysis.StringConstVars(fn)}
}

func (a *flow) run() {
	w := &analysis.Walker[*flowState]{Facts: a.x.facts, Hooks: a}
	w.Walk(a.fn.Decl.Body, newFlowState())
}

// Loop implements analysis.Hooks; loops carry no durability rule.
func (a *flow) Loop(ast.Stmt, *flowState) {}

// Return implements analysis.Hooks; returns carry no durability rule.
func (a *flow) Return(*ast.ReturnStmt, bool, *flowState) {}

// Call implements analysis.Hooks: it classifies one call as an
// externally visible send (direct or via a wrapper) or a durable write
// (annotated summary, one-level summary, or direct stable/wal mutation).
func (a *flow) Call(call *analysis.Call, s *flowState) {
	obj, c := call.Obj, call.Expr
	if obj == nil {
		return
	}
	if idx, isSend := analysis.SendKindIndex(obj); isSend {
		if idx < len(c.Args) {
			a.checkSend(c, c.Args[idx], s)
		}
		return
	}
	if callee := call.Static; callee != nil {
		sum := a.x.sums[callee]
		if sum.sendWrapKindIdx >= 0 && sum.sendWrapKindIdx < len(c.Args) {
			a.checkSend(c, c.Args[sum.sendWrapKindIdx], s)
		}
		switch {
		case sum.annotated:
			s.gen(sum.writes...)
			s.gen("")
		case sum.reachesDurable:
			s.gen("fn:"+callee.Name, "")
		}
		return
	}
	if isStableMutator(obj) {
		s.gen("")
		return
	}
	if isWalMutator(obj) {
		s.gen("log", "")
	}
}

// IndexWrite implements analysis.Hooks: it enforces the write-ahead rule
// on volatile writes.
func (a *flow) IndexWrite(target ast.Expr, pos token.Pos, s *flowState) {
	name := a.x.volatileTarget(a.fn, target)
	if name == "" || s.avail[""] {
		return
	}
	if killPos, ok := s.killedAt[""]; ok {
		a.x.diags.Reportf(a.pkg.Fset.Position(pos), RuleVolatile,
			"write to volatile %s is not dominated by a durable write; the branch at %s skips it",
			name, a.pkg.ShortPos(killPos))
		return
	}
	a.x.diags.Reportf(a.pkg.Fset.Position(pos), RuleVolatile,
		"write to volatile %s is not dominated by a durable write", name)
}

// checkSend enforces //dur:requires at an externally visible send.
func (a *flow) checkSend(c *ast.CallExpr, kindExpr ast.Expr, s *flowState) {
	// A wrapper's own kind parameter resolves to nothing: its call sites
	// carry the actual kind and are checked there. A literal kind cannot
	// carry a //dur:requires annotation, so it is requirement-free rather
	// than unresolvable.
	objs, resolved := analysis.KindConsts(a.fn, a.varKinds, kindExpr)
	if !resolved {
		if a.x.pkgRequires[a.pkg.Types] {
			a.x.diags.Reportf(a.pkg.Fset.Position(c.Pos()), RuleExtract,
				"cannot statically resolve the message kind of this send")
		}
		return
	}
	seen := map[string]bool{}
	for _, obj := range objs {
		class, ok := a.x.requires[obj]
		if !ok || seen[class] {
			continue
		}
		seen[class] = true
		if s.avail[class] {
			continue
		}
		kind := obj.Name()
		if unnamed := unclassifiedWrites(s); len(unnamed) > 0 {
			a.x.diags.Reportf(a.pkg.Fset.Position(c.Pos()), RuleSummary,
				"send of %s is dominated only by unannotated durable write %s; annotate it with //dur:writes",
				kind, unnamed[0])
			continue
		}
		if killPos, ok := s.killedAt[class]; ok {
			a.x.diags.Reportf(a.pkg.Fset.Position(c.Pos()), RuleSend,
				"send of %s is not dominated by a durable %q write; the branch at %s skips it",
				kind, class, a.pkg.ShortPos(killPos))
			continue
		}
		a.x.diags.Reportf(a.pkg.Fset.Position(c.Pos()), RuleSend,
			"send of %s requires a durable %q write that no path provides", kind, class)
	}
}

// unclassifiedWrites lists the available durable writes that only a
// missing //dur:writes annotation keeps from satisfying a class, sorted.
func unclassifiedWrites(s *flowState) []string {
	var out []string
	for cls := range s.avail {
		if rest, ok := strings.CutPrefix(cls, "fn:"); ok {
			out = append(out, rest)
		}
	}
	sort.Strings(out)
	return out
}
