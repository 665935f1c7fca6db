package rete

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pdps/internal/match"
)

// bindingPos records where a variable was first bound: the chain level
// (condition index) and attribute.
type bindingPos struct {
	level int
	attr  string
}

// intraTest compares two attributes of the same WME (a variable used
// twice within one condition element). It is evaluated in the alpha
// network because it needs no other WME.
type intraTest struct {
	op    match.Op
	attrA string // the attribute carrying the later occurrence
	attrB string // the attribute the variable was bound from
}

// compiledCE is one condition element's tests classified relative to a
// particular placement: consts and intras evaluate in the alpha
// network, joins reference earlier chain levels, presence tests back
// the variable bindings this CE introduces.
type compiledCE struct {
	cond     match.Condition
	consts   []match.AttrTest
	intras   []intraTest
	joins    []joinTest
	presence []string
}

// classifyCE splits a CE's tests given the binding positions of the
// already-placed levels. i is the CE's chain level; bound is updated
// with the variables this CE binds (the first OpEq occurrence binds —
// Validate guarantees that occurrence sits in a positive CE).
func classifyCE(c match.Condition, i int, bound map[string]bindingPos) compiledCE {
	cc := compiledCE{cond: c}
	for _, t := range c.Tests {
		switch {
		case !t.IsVar():
			cc.consts = append(cc.consts, t)
		default:
			pos, isBound := bound[t.Var]
			switch {
			case isBound && pos.level == i:
				cc.intras = append(cc.intras, intraTest{op: t.Op, attrA: t.Attr, attrB: pos.attr})
			case isBound:
				cc.joins = append(cc.joins, joinTest{
					op:        t.Op,
					ownAttr:   t.Attr,
					levelsUp:  (i - 1) - pos.level,
					otherAttr: pos.attr,
				})
			default:
				bound[t.Var] = bindingPos{level: i, attr: t.Attr}
				cc.presence = append(cc.presence, t.Attr)
			}
		}
	}
	return cc
}

// AddRule validates and compiles a rule into the network. Every rule
// is added before the first WME: once Insert has run, AddRule returns
// an error, so new nodes never need seeding from resident matches.
// The condition elements are reordered by the static cost model
// (cost.go) before compilation; the emitted instantiations are
// independent of the chosen order.
func (n *Network) AddRule(r *match.Rule) error {
	if n.populated {
		return errorf("rule %s added after working memory", r.Name)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := n.chains[r.Name]; dup {
		return errorf("duplicate rule %s", r.Name)
	}
	order, cost := planOrder(r)
	n.chains[r.Name] = n.compileChain(r, order, cost)
	n.updatePlanGauges()
	return nil
}

// compileChain builds the rule's node chain in the given condition
// order (order[level] = original CE index). Beta-prefix sharing: a
// level whose structural prefix (alpha pattern, negation and join
// tests of every level up to it) equals an
// existing rule's prefix reuses that rule's join/memory nodes instead
// of building new ones. The final positive join is always
// exclusive — it feeds this rule's production directly.
func (n *Network) compileChain(r *match.Rule, order []int, cost float64) *ruleChain {
	m := len(order)
	prod := &prodNode{net: n, rule: r, numLevels: m, bindings: make(map[string]bindingPos)}
	rc := &ruleChain{r: r, order: order, cost: cost}

	// Classify tests level by level in plan order: variables bind at
	// their first OpEq occurrence along the plan, so join tests always
	// reference earlier levels of the reordered chain.
	bound := make(map[string]bindingPos)
	ces := make([]compiledCE, m)
	for lvl, orig := range order {
		ces[lvl] = classifyCE(r.Conditions[orig], lvl, bound)
	}

	// Reordering must be invisible in emitted instantiations: WMEs are
	// listed in the rule's source positive-CE order (action CE indices
	// and instantiation keys depend on it), and each variable reads its
	// value from the CE that binds it in SOURCE order — an equality
	// join only guarantees a Value.Equal match at other levels, and
	// Equal is kind-insensitive (Int(3) vs Float(3)) while rendered
	// bindings are not.
	planLevel := make([]int, m)
	for lvl, orig := range order {
		planLevel[orig] = lvl
	}
	srcBound := make(map[string]bindingPos)
	for i, c := range r.Conditions {
		classifyCE(c, i, srcBound) // only the binding side-effect is needed
		if !c.Negated {
			prod.wmeOrder = append(prod.wmeOrder, planLevel[i])
		}
	}
	for v, pos := range srcBound {
		prod.bindings[v] = bindingPos{level: planLevel[pos.level], attr: pos.attr}
	}

	var source betaSource = n.top
	prefix := ""
	var classes []string // of the positive levels so far
	for lvl, cc := range ces {
		amem := n.alphaMemFor(cc.cond.Class, cc.consts, cc.intras, cc.presence)
		prefix += levelSig(cc.cond.Negated, amem.key, cc.joins)
		last := lvl == m-1
		self := slices.Contains(classes, cc.cond.Class)

		if cc.cond.Negated {
			bl := n.betaLevels[prefix]
			if bl == nil {
				neg := newNegNode(n, amem, cc.joins)
				neg.selfJoin = self
				source.addChildSink(neg)
				amem.successors = append(amem.successors, neg)
				for t := nextValid(source.firstToken()); t != nil; t = nextValid(t.item.next) {
					neg.onToken(t)
				}
				bl = &betaLevel{neg: neg}
				n.betaLevels[prefix] = bl
			}
			bl.refs++
			rc.levels = append(rc.levels, bl)
			source = bl.neg
			if last {
				prod.viaToken = true
				bl.neg.addChildSink(prod)
				for t := nextValid(bl.neg.firstToken()); t != nil; t = nextValid(t.item.next) {
					prod.onToken(t)
				}
			}
			continue
		}

		if last {
			join := newJoinNode(n, source, amem, cc.joins, prod)
			join.selfJoin = self
			source.addChildSink(join)
			amem.successors = append(amem.successors, join)
			for t := nextValid(source.firstToken()); t != nil; t = nextValid(t.item.next) {
				join.onToken(t)
			}
			rc.lastJoin = join
			continue
		}

		bl := n.betaLevels[prefix]
		if bl == nil {
			mem := &memNode{net: n}
			join := newJoinNode(n, source, amem, cc.joins, mem)
			join.selfJoin = self
			source.addChildSink(join)
			amem.successors = append(amem.successors, join)
			for t := nextValid(source.firstToken()); t != nil; t = nextValid(t.item.next) {
				join.onToken(t)
			}
			bl = &betaLevel{join: join, mem: mem}
			n.betaLevels[prefix] = bl
		}
		bl.refs++
		rc.levels = append(rc.levels, bl)
		source = bl.mem
		classes = append(classes, cc.cond.Class)
	}
	return rc
}

// levelSig renders one level's structural signature for beta-prefix
// sharing: negation, the alpha pattern, and the full join-test list
// (levelsUp included — tests must point at identical chain shapes).
func levelSig(negated bool, amemKey string, joins []joinTest) string {
	var b strings.Builder
	if negated {
		b.WriteByte('~')
	} else {
		b.WriteByte('+')
	}
	b.WriteString(amemKey)
	for _, jt := range joins {
		fmt.Fprintf(&b, "\x01%s %s %d %s", jt.ownAttr, jt.op, jt.levelsUp, jt.otherAttr)
	}
	b.WriteByte('\x02')
	return b.String()
}

// alphaMemFor returns the shared alpha memory for the pattern,
// creating it and threading it into the discrimination network if new.
func (n *Network) alphaMemFor(class string, consts []match.AttrTest, intras []intraTest, presence []string) *alphaMem {
	key := alphaKey(class, consts, intras, presence)
	if am, ok := n.alphaByKey[key]; ok {
		return am
	}
	am := &alphaMem{key: key, class: class}
	n.alphaByKey[key] = am
	n.discAttach(am, consts, intras, presence)
	return am
}

// constPart, intraPart and presencePart render one test's structural
// signature. They serve double duty: sorted and joined they form the
// alpha-memory sharing key, and individually they are the
// discrimination-network node-sharing keys (alpha.go) — two patterns
// share a residual test node exactly when the signatures match.
func constPart(t match.AttrTest) string {
	if t.IsDisjunction() {
		alts := make([]string, len(t.OneOf))
		for i, v := range t.OneOf {
			alts[i] = fmt.Sprintf("%s:%d", v, v.Kind())
		}
		return fmt.Sprintf("d:%s in [%s]", t.Attr, strings.Join(alts, " "))
	}
	return fmt.Sprintf("c:%s %s %s:%d", t.Attr, t.Op, t.Const, t.Const.Kind())
}

func intraPart(it intraTest) string {
	return fmt.Sprintf("i:%s %s %s", it.attrA, it.op, it.attrB)
}

func presencePart(a string) string { return "p:" + a }

func alphaKey(class string, consts []match.AttrTest, intras []intraTest, presence []string) string {
	parts := make([]string, 0, len(consts)+len(intras)+len(presence))
	for _, t := range consts {
		parts = append(parts, constPart(t))
	}
	for _, it := range intras {
		parts = append(parts, intraPart(it))
	}
	for _, a := range presence {
		parts = append(parts, presencePart(a))
	}
	sort.Strings(parts)
	return class + "|" + strings.Join(parts, "|")
}
