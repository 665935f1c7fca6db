package rete

import "pdps/internal/match"

// This file is the cost model behind condition-element ordering — the
// database-style join planner applied to Rete compilation. A rule's
// chain cost is modelled as token flow: placing a CE at level i turns
// `tokens` upstream partial matches into `tokens × fanout` downstream
// ones at a cost of one activation (index probe or scan) plus the
// candidates it examines. The greedy planner places the eligible CE
// with the smallest result cardinality first (classic smallest-
// intermediate-result heuristic), with the step cost and then the
// original CE index as deterministic tie-breaks — an already
// well-ordered rule compiles exactly as written, keeping golden traces
// and detsched replay byte-identical.
//
// The estimates are static: the planner assumes planClassRows tuples
// per class and the selectivity constants below — enough to rank "has
// a constant equality test" above "unconstrained wide relation".

const (
	// planClassRows is the assumed relation cardinality when nothing is
	// known about a class.
	planClassRows = 1024
	// Constant-test selectivities.
	selConstEq   = 1.0 / 16
	selConstNe   = 0.9
	selConstIneq = 1.0 / 3
	selConstDisj = 1.0 / 8
	// Join selectivities per equality / inequality test.
	selEqJoin   = 1.0 / 64
	selIneqJoin = 1.0 / 3
)

// constSelectivity is the modelled fraction of a class passing the
// CE's alpha-network tests.
func constSelectivity(cc compiledCE) float64 {
	s := 1.0
	for _, t := range cc.consts {
		switch {
		case t.IsDisjunction():
			s *= selConstDisj
		case t.Op == match.OpEq:
			s *= selConstEq
		case t.Op == match.OpNe:
			s *= selConstNe
		default:
			s *= selConstIneq
		}
	}
	for _, it := range cc.intras {
		if it.op == match.OpEq {
			s *= selConstEq
		} else {
			s *= selConstIneq
		}
	}
	return s
}

// eligible reports whether the CE can be placed next: every variable
// it uses without binding it must already be bound (negated CEs never
// bind; a positive CE binds at an unbound variable's first OpEq
// occurrence). The source order is always a feasible plan, so a greedy
// placement never gets stuck.
func eligible(c match.Condition, bound map[string]bindingPos) bool {
	local := make(map[string]bool)
	for _, t := range c.Tests {
		if !t.IsVar() {
			continue
		}
		if _, ok := bound[t.Var]; ok {
			continue
		}
		if local[t.Var] {
			continue
		}
		if c.Negated || t.Op != match.OpEq {
			return false
		}
		local[t.Var] = true
	}
	return true
}

// placeCost evaluates placing CE c at chain level lvl given `tokens`
// upstream partial matches: the resulting downstream token count and
// the step's activation cost. bound is not modified.
func placeCost(c match.Condition, lvl int, bound map[string]bindingPos, tokens float64) (out, cost float64) {
	scratch := make(map[string]bindingPos, len(bound))
	for k, v := range bound {
		scratch[k] = v
	}
	cc := classifyCE(c, lvl, scratch)
	f := joinFanout(cc, planClassRows*constSelectivity(cc))
	if c.Negated {
		// A negative level costs one activation per token plus the
		// matches found; a token survives when nothing matches, so the
		// expected pass rate shrinks with the fanout.
		return tokens / (1 + f), tokens * (1 + f)
	}
	return tokens * f, tokens * (1 + f)
}

// joinFanout estimates matches per activation for the CE's join: rows
// scaled by the per-test join selectivities (a join with no variable
// tests is a cross product — every row matches).
func joinFanout(cc compiledCE, rows float64) float64 {
	eq, ineq := 0, 0
	for _, jt := range cc.joins {
		if jt.op == match.OpEq {
			eq++
		} else {
			ineq++
		}
	}
	if eq+ineq == 0 {
		return rows
	}
	f := rows
	for i := 0; i < eq; i++ {
		f *= selEqJoin
	}
	for i := 0; i < ineq; i++ {
		f *= selIneqJoin
	}
	return f
}

// planOrder orders the rule's condition elements greedily: at each
// step place the eligible CE minimising (result tokens, step cost,
// original index). Returns the order (plan level -> original CE index)
// and the plan's estimated cost.
func planOrder(r *match.Rule) ([]int, float64) {
	m := len(r.Conditions)
	order := make([]int, 0, m)
	placed := make([]bool, m)
	bound := make(map[string]bindingPos)
	tokens, total := 1.0, 0.0
	for len(order) < m {
		bestIdx := -1
		var bestOut, bestCost float64
		for i, c := range r.Conditions {
			if placed[i] || !eligible(c, bound) {
				continue
			}
			out, cost := placeCost(c, len(order), bound, tokens)
			if bestIdx < 0 || out < bestOut || (out == bestOut && cost < bestCost) {
				bestIdx, bestOut, bestCost = i, out, cost
			}
		}
		classifyCE(r.Conditions[bestIdx], len(order), bound) // commit bindings
		order = append(order, bestIdx)
		placed[bestIdx] = true
		tokens = bestOut
		total += bestCost
	}
	return order, total
}
