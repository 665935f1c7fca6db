package rete

import (
	"fmt"
	"sort"
	"strings"

	"pdps/internal/match"
)

// This file owns the compiled-plan bookkeeping behind cost-based
// compilation (cost.go): the per-rule chain records, the shared
// beta-level cache, and chain teardown (RemoveRule).

// betaLevel is one shared-able level of a compiled chain: a join node
// feeding a beta memory, or a negative node. Levels are cached by the
// structural prefix key, so rules whose reordered CE prefixes are
// structurally equal share the nodes; refs counts the rules using the
// level.
type betaLevel struct {
	key    string
	refs   int
	parent betaSource
	join   *joinNode // nil for negated levels
	mem    *memNode  // nil for negated levels
	neg    *negNode  // nil for positive levels
}

// source is the betaSource this level exposes downstream.
func (bl *betaLevel) source() betaSource {
	if bl.neg != nil {
		return bl.neg
	}
	return bl.mem
}

// ruleChain records one rule's compiled form: the condition order, the
// (possibly shared) levels, and the exclusive last join when the final
// plan level is positive. When the final level is negated the
// production hangs off that level's negative node instead.
type ruleChain struct {
	r          *match.Rule
	order      []int // plan level -> original CE index
	cost       float64
	levels     []*betaLevel
	lastJoin   *joinNode  // exclusive pair-sink join; nil when the last CE is negated
	lastParent betaSource // the last join's upstream (for detaching)
	prod       *prodNode
}

// sourceItems returns the tokens a beta source owns (valid or not).
func sourceItems(s betaSource) []*token {
	switch src := s.(type) {
	case *memNode:
		return src.items
	case *negNode:
		return src.items
	}
	return nil
}

// removeChain tears a rule's compiled chain out of the network: shared
// levels lose a reference, the dead suffix (refs hitting zero is
// monotone along a chain) is drained through the ordinary
// token-deletion paths — maintaining hash indexes, join-result
// registries and the conflict set — and the dead nodes are unhooked
// from the surviving graph.
func (n *Network) removeChain(rc *ruleChain) {
	firstDead := len(rc.levels)
	for i := len(rc.levels) - 1; i >= 0; i-- {
		rc.levels[i].refs--
		if rc.levels[i].refs == 0 {
			firstDead = i
		}
	}
	if firstDead < len(rc.levels) {
		// A dead token-owning node exists: deleting its tokens cascades
		// through every dead descendant, the production's included.
		for _, t := range append([]*token(nil), sourceItems(rc.levels[firstDead].source())...) {
			n.deleteToken(t)
		}
	} else {
		// Every level survives (fully shared prefix, or a bare last
		// join off the dummy top): the production's tokens hang under
		// live parents — sweep them out individually.
		var parents []*token
		if rc.prod.viaToken {
			parents = sourceItems(rc.levels[len(rc.levels)-1].source())
		} else {
			parents = sourceItems(rc.lastParent)
		}
		for _, t := range append([]*token(nil), parents...) {
			for _, c := range append([]*token(nil), t.children...) {
				if c.node == rc.prod {
					n.deleteToken(c)
				}
			}
		}
	}
	for i := firstDead; i < len(rc.levels); i++ {
		bl := rc.levels[i]
		if bl.join != nil {
			bl.parent.removeChildSink(bl.join)
			bl.join.amem.removeSuccessor(bl.join)
			n.maybeGCAlpha(bl.join.amem)
		}
		if bl.neg != nil {
			bl.parent.removeChildSink(bl.neg)
			bl.neg.amem.removeSuccessor(bl.neg)
			n.maybeGCAlpha(bl.neg.amem)
		}
		delete(n.betaLevels, bl.key)
	}
	if rc.lastJoin != nil {
		rc.lastParent.removeChildSink(rc.lastJoin)
		rc.lastJoin.amem.removeSuccessor(rc.lastJoin)
		n.maybeGCAlpha(rc.lastJoin.amem)
	} else if firstDead == len(rc.levels) {
		// The production hangs off a surviving shared negative node.
		rc.levels[len(rc.levels)-1].neg.removeChildSink(rc.prod)
	}
}

// RemoveRule tears a rule's compiled chain out of the network: its
// instantiations leave the conflict set, shared beta levels drop a
// reference (exclusive suffixes are drained and unhooked), and alpha
// memories left without successors are garbage-collected along with
// their discrimination-network paths, so removed rules stop taxing
// the assert path entirely. Removing an unknown rule is an error.
func (n *Network) RemoveRule(name string) error {
	rc := n.chains[name]
	if rc == nil {
		return errorf("unknown rule %s", name)
	}
	n.removeChain(rc)
	delete(n.chains, name)
	delete(n.rules, name)
	n.updatePlanGauges()
	return nil
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
