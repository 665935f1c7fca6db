package rete

import (
	"fmt"
	"sort"
	"strings"

	"pdps/internal/match"
)

// This file owns the compiled-plan bookkeeping behind cost-based
// compilation (cost.go): the per-rule chain records and the shared
// beta-level cache.

// betaLevel is one shared-able level of a compiled chain: a join node
// feeding a beta memory, or a negative node. Levels are cached by the
// structural prefix key, so rules whose reordered CE prefixes are
// structurally equal share the nodes; refs counts the rules using the
// level.
type betaLevel struct {
	refs int
	join *joinNode // nil for negated levels
	mem  *memNode  // nil for negated levels
	neg  *negNode  // nil for positive levels
}

// ruleChain records one rule's compiled form: the condition order, the
// (possibly shared) levels, and the exclusive last join when the final
// plan level is positive. When the final level is negated the
// production hangs off that level's negative node instead.
type ruleChain struct {
	r        *match.Rule
	order    []int // plan level -> original CE index
	cost     float64
	levels   []*betaLevel
	lastJoin *joinNode // exclusive pair-sink join; nil when the last CE is negated
}

// updatePlanGauges publishes the plan-cost and shared-beta gauges.
func (n *Network) updatePlanGauges() {
	if n.met == nil {
		return
	}
	var cost float64
	for _, rc := range n.chains {
		cost += rc.cost
	}
	n.met.planCost.Set(int64(cost))
	shared := int64(0)
	for _, bl := range n.betaLevels {
		if bl.refs > 1 {
			shared++
		}
	}
	n.met.sharedBeta.Set(shared)
	n.met.sharedAlpha.Set(n.countSharedAlpha())
}

// RulePlan reports one rule's compiled join order for diagnostics:
// the CE classes in plan order (with their original indices), which
// levels are shared with other rules, and the estimated plan cost.
type RulePlan struct {
	Rule    string
	Order   []int // plan level -> original CE index
	Classes []string
	Negated []bool
	Shared  []bool
	// AlphaShared marks levels whose alpha memory feeds more than one
	// successor — the cross-rule constant-test factoring achieved by
	// the discrimination network.
	AlphaShared []bool
	Cost        float64
}

// String renders the plan compactly: each level as class[origIdx],
// negated levels prefixed with ~, beta-shared levels suffixed with *,
// alpha-shared levels suffixed with '.
func (p RulePlan) String() string {
	var b strings.Builder
	b.WriteString(p.Rule)
	b.WriteByte(':')
	for i, cls := range p.Classes {
		b.WriteByte(' ')
		if p.Negated[i] {
			b.WriteByte('~')
		}
		fmt.Fprintf(&b, "%s[%d]", cls, p.Order[i])
		if p.Shared[i] {
			b.WriteByte('*')
		}
		if i < len(p.AlphaShared) && p.AlphaShared[i] {
			b.WriteByte('\'')
		}
	}
	fmt.Fprintf(&b, " (cost %.0f)", p.Cost)
	return b.String()
}

// Plans reports every rule's current compiled plan, sorted by rule
// name.
func (n *Network) Plans() []RulePlan {
	names := make([]string, 0, len(n.chains))
	for name := range n.chains {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]RulePlan, 0, len(names))
	for _, name := range names {
		rc := n.chains[name]
		p := RulePlan{
			Rule:  name,
			Order: append([]int(nil), rc.order...),
			Cost:  rc.cost,
		}
		for lvl, orig := range rc.order {
			c := rc.r.Conditions[orig]
			p.Classes = append(p.Classes, c.Class)
			p.Negated = append(p.Negated, c.Negated)
			p.Shared = append(p.Shared, lvl < len(rc.levels) && rc.levels[lvl].refs > 1)
			var am *alphaMem
			switch {
			case lvl < len(rc.levels):
				if bl := rc.levels[lvl]; bl.join != nil {
					am = bl.join.amem
				} else {
					am = bl.neg.amem
				}
			case rc.lastJoin != nil:
				am = rc.lastJoin.amem
			}
			p.AlphaShared = append(p.AlphaShared, am != nil && len(am.successors) > 1)
		}
		out = append(out, p)
	}
	return out
}
