package fsmcheck

// check runs the cross-declaration checks that need the fully extracted
// report: duplicate wire values, dead states and dead kinds.
func (x *extractor) check(rep *Report) {
	for _, name := range rep.MachineNames() {
		m := rep.Machines[name]
		x.checkDuplicateWires(m)
		x.checkDeadStates(m)
		x.checkDeadKinds(m)
	}
}

// checkDuplicateWires flags two kind constants of one machine sharing a
// wire string: dispatch on the kind becomes ambiguous even though the Go
// compiler accepts the constants.
func (x *extractor) checkDuplicateWires(m *Machine) {
	byValue := map[string]*KindDecl{}
	for _, kd := range m.Kinds {
		if prev, ok := byValue[kd.Value]; ok {
			x.diags.Reportf(kd.Pos, RuleDeterminism, "kind %s shares wire value %q with %s; dispatch on the kind is ambiguous", kd.Name, kd.Value, prev.Name)
			continue
		}
		byValue[kd.Value] = kd
	}
}

// checkDeadStates flags declared states that appear in no extracted
// transition. The check only fires once the machine has transitions —
// a machine annotated with states but no //fsm:emit function is reported
// as an extraction gap instead.
func (x *extractor) checkDeadStates(m *Machine) {
	if len(m.States) > 0 && len(m.Edges) == 0 {
		x.diags.Reportf(m.States[0].Pos, RuleExtract, "machine %s declares states but no transitions were extracted; annotate its transition method with //fsm:emit", m.Name)
		return
	}
	used := map[string]bool{}
	for _, e := range m.Edges {
		used[e.From] = true
		used[e.To] = true
	}
	for _, sd := range m.States {
		if !used[sd.Alias] {
			x.diags.Reportf(sd.Pos, RuleDead, "state %s (%s) of machine %s appears in no extracted transition", sd.Name, sd.Alias, m.Name)
		}
	}
}

// checkDeadKinds flags declared kinds no call site ever produces: the
// handler arm waiting for them is dead code.
func (x *extractor) checkDeadKinds(m *Machine) {
	for _, kd := range m.Kinds {
		if !kd.Produced {
			x.diags.Reportf(kd.Pos, RuleDead, "kind %s of machine %s is consumed but never produced (no call site sends it)", kd.Name, m.Name)
		}
	}
}
