// Package treat implements the TREAT match algorithm (Miranker 1984),
// the paper's cited alternative to Rete: it retains only alpha
// memories (per-condition-element filtered WME sets) and recomputes
// joins seeded at the changed WME, storing no beta-level partial-match
// state. The conflict set itself doubles as TREAT's only inter-cycle
// join memory.
package treat

import (
	"fmt"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// ceAlpha is the alpha memory of one condition element of one rule.
type ceAlpha struct {
	cond  match.Condition
	items map[*wm.WME]bool
}

func (a *ceAlpha) matches(w *wm.WME) bool {
	// A WME is admitted to the alpha memory if it can satisfy the CE's
	// constant tests; variable tests are join-time work. Binding
	// occurrences require attribute presence.
	if w.Class != a.cond.Class {
		return false
	}
	for _, t := range a.cond.Tests {
		if !w.HasAttr(t.Attr) {
			return false
		}
		if !t.IsVar() && !t.Matches(w.Attr(t.Attr)) {
			return false
		}
	}
	return true
}

type compiledRule struct {
	rule   *match.Rule
	alphas []*ceAlpha // one per condition element, in order
}

// Matcher is the TREAT matcher. It implements match.Matcher.
type Matcher struct {
	rules  []*compiledRule
	byName map[string]*compiledRule
	cs     *match.ConflictSet
}

// New returns an empty TREAT matcher.
func New() *Matcher {
	return &Matcher{byName: make(map[string]*compiledRule), cs: match.NewConflictSet()}
}

// AddRule validates and compiles a rule. Rules added after WMEs do not
// see prior WMEs (engines add rules first); use Insert to seed.
func (m *Matcher) AddRule(r *match.Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := m.byName[r.Name]; dup {
		return fmt.Errorf("treat: duplicate rule %s", r.Name)
	}
	cr := &compiledRule{rule: r}
	for _, c := range r.Conditions {
		cr.alphas = append(cr.alphas, &ceAlpha{cond: c, items: make(map[*wm.WME]bool)})
	}
	m.rules = append(m.rules, cr)
	m.byName[r.Name] = cr
	return nil
}

// ConflictSet returns the live conflict set.
func (m *Matcher) ConflictSet() *match.ConflictSet { return m.cs }

// TrackChanges enables membership journaling on the live conflict set,
// which this matcher maintains incrementally.
func (m *Matcher) TrackChanges(on bool) { m.cs.TrackChanges(on) }

// Insert adds a WME version and updates the conflict set: new
// instantiations through each positive CE the WME enters, and retracted
// instantiations whose negated CEs the WME now satisfies.
func (m *Matcher) Insert(w *wm.WME) {
	for _, cr := range m.rules {
		entered := make([]int, 0, len(cr.alphas))
		for i, a := range cr.alphas {
			if a.items[w] {
				continue
			}
			if a.matches(w) {
				a.items[w] = true
				entered = append(entered, i)
			}
		}
		for _, i := range entered {
			if cr.alphas[i].cond.Negated {
				m.retractBlocked(cr, i, w)
			} else {
				m.addSeeded(cr, i, w)
			}
		}
	}
}

// Remove retracts a WME version: instantiations built on it disappear,
// and instantiations blocked only by it (through a negated CE) appear.
func (m *Matcher) Remove(w *wm.WME) {
	for _, cr := range m.rules {
		var left []int
		for i, a := range cr.alphas {
			if a.items[w] {
				delete(a.items, w)
				left = append(left, i)
			}
		}
		for _, i := range left {
			if cr.alphas[i].cond.Negated {
				// The blocker is gone: instantiations it suppressed may
				// now hold. Recompute the rule's matches; Add dedups.
				m.addSeeded(cr, -1, nil)
			} else {
				m.cs.RemoveIf(func(in *match.Instantiation) bool { return in.Uses(w) })
			}
		}
	}
}

// retractBlocked removes instantiations of cr that the new WME w now
// blocks through negated CE index ci.
func (m *Matcher) retractBlocked(cr *compiledRule, ci int, w *wm.WME) {
	cond := cr.alphas[ci].cond
	m.cs.RemoveIf(func(in *match.Instantiation) bool {
		if in.Rule != cr.rule {
			return false
		}
		_, blocked := match.TestCE(cond, w, in.Bindings)
		return blocked
	})
}

// addSeeded enumerates instantiations of cr. When pin >= 0, only
// instantiations using pinW at positive CE pin are generated (the
// seeded TREAT join); pin < 0 enumerates all.
func (m *Matcher) addSeeded(cr *compiledRule, pin int, pinW *wm.WME) {
	var rec func(ci int, wmes []*wm.WME, b match.Bindings)
	rec = func(ci int, wmes []*wm.WME, b match.Bindings) {
		if ci == len(cr.alphas) {
			ws := make([]*wm.WME, len(wmes))
			copy(ws, wmes)
			m.cs.Add(&match.Instantiation{Rule: cr.rule, WMEs: ws, Bindings: b.Clone()})
			return
		}
		a := cr.alphas[ci]
		if a.cond.Negated {
			for w := range a.items {
				if _, ok := match.TestCE(a.cond, w, b); ok {
					return
				}
			}
			rec(ci+1, wmes, b)
			return
		}
		if ci == pin {
			if nb, ok := match.TestCE(a.cond, pinW, b); ok {
				rec(ci+1, append(wmes, pinW), nb)
			}
			return
		}
		for w := range a.items {
			if nb, ok := match.TestCE(a.cond, w, b); ok {
				rec(ci+1, append(wmes, w), nb)
			}
		}
	}
	rec(0, nil, make(match.Bindings))
}

var _ match.Matcher = (*Matcher)(nil)
