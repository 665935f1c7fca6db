package match

import (
	"fmt"
	"sort"

	"pdps/internal/wm"
)

// View is a read-only snapshot of working memory, as seen either by
// the shared store or by an in-flight transaction.
type View interface {
	ByClass(class string) []*wm.WME
}

// Matcher computes and incrementally maintains the conflict set. Rete
// is the engines' implementation and TREAT a match-phase baseline;
// Naive recomputes the set from scratch as the correctness oracle and
// keeps no journal, so it has every method but TrackChanges.
type Matcher interface {
	// AddRule registers a production. Rules must be added before the
	// WMEs they should match (engines add all rules first).
	AddRule(r *Rule) error
	// Insert notifies the matcher of a new WME version.
	Insert(w *wm.WME)
	// Remove notifies the matcher that a WME version left working memory.
	Remove(w *wm.WME)
	// ConflictSet returns the current conflict set. The returned set is
	// owned by the matcher; callers must not retain it across updates.
	ConflictSet() *ConflictSet
	// TrackChanges makes the conflict set journal membership changes
	// (ConflictSet.TrackChanges) between ConflictSet calls. Engines
	// enable it and drain the journal with TakeChanges after each
	// commit.
	TrackChanges(on bool)
}

// MatchRule computes all instantiations of a rule against a view. It
// is the reference (generate-and-test) matching semantics every
// incremental matcher must agree with.
func MatchRule(v View, r *Rule) []*Instantiation {
	var out []*Instantiation
	matchFrom(v, r, 0, nil, make(Bindings), &out)
	return out
}

func matchFrom(v View, r *Rule, ci int, matched []*wm.WME, b Bindings, out *[]*Instantiation) {
	if ci == len(r.Conditions) {
		ws := make([]*wm.WME, len(matched))
		copy(ws, matched)
		*out = append(*out, &Instantiation{Rule: r, WMEs: ws, Bindings: b.Clone()})
		return
	}
	c := r.Conditions[ci]
	if c.Negated {
		for _, w := range v.ByClass(c.Class) {
			if _, ok := testCE(c, w, b); ok {
				return // a matching WME falsifies the negated CE
			}
		}
		matchFrom(v, r, ci+1, matched, b, out)
		return
	}
	for _, w := range v.ByClass(c.Class) {
		nb, ok := testCE(c, w, b)
		if !ok {
			continue
		}
		matchFrom(v, r, ci+1, append(matched, w), nb, out)
	}
}

// TestCE tests a WME against a condition element under existing
// bindings. On success it returns the (possibly extended) bindings;
// the input bindings are never mutated. It is exported for matchers
// (e.g. TREAT) that enumerate joins themselves.
func TestCE(c Condition, w *wm.WME, b Bindings) (Bindings, bool) {
	return testCE(c, w, b)
}

// testCE tests a WME against a condition element under existing
// bindings. On success it returns the (possibly extended) bindings.
// The input bindings are never mutated.
func testCE(c Condition, w *wm.WME, b Bindings) (Bindings, bool) {
	nb := b
	extended := false
	for _, t := range c.Tests {
		if !w.HasAttr(t.Attr) {
			return nil, false
		}
		av := w.Attr(t.Attr)
		if !t.IsVar() {
			if !t.Matches(av) {
				return nil, false
			}
			continue
		}
		bv, bound := nb[t.Var]
		if !bound {
			if t.Op != OpEq || c.Negated {
				// Validate() rejects this for positive CEs; inside a
				// negated CE an unbound variable cannot bind.
				return nil, false
			}
			if !extended {
				nb = nb.Clone()
				extended = true
			}
			nb[t.Var] = av
			continue
		}
		if !t.Op.Eval(av, bv) {
			return nil, false
		}
	}
	return nb, true
}

// Naive is the from-scratch reference matcher. Each ConflictSet call
// recomputes every rule against the mirrored working memory. It is
// O(|rules| · |WM|^|CEs|) and exists as the oracle for the incremental
// matchers and as the baseline in match-phase benchmarks.
type Naive struct {
	rules   []*Rule
	byClass map[string]map[int64]*wm.WME
}

// NewNaive returns an empty naive matcher.
func NewNaive() *Naive {
	return &Naive{byClass: make(map[string]map[int64]*wm.WME)}
}

// AddRule registers a rule after validating it.
func (n *Naive) AddRule(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	for _, existing := range n.rules {
		if existing.Name == r.Name {
			return fmt.Errorf("match: duplicate rule %s", r.Name)
		}
	}
	n.rules = append(n.rules, r)
	return nil
}

// Insert mirrors a WME insertion.
func (n *Naive) Insert(w *wm.WME) {
	cls := n.byClass[w.Class]
	if cls == nil {
		cls = make(map[int64]*wm.WME)
		n.byClass[w.Class] = cls
	}
	cls[w.ID] = w
}

// Remove mirrors a WME removal.
func (n *Naive) Remove(w *wm.WME) {
	if cls := n.byClass[w.Class]; cls != nil {
		delete(cls, w.ID)
	}
}

// ByClass returns the mirrored WMEs of a class ordered by ID,
// implementing View.
func (n *Naive) ByClass(class string) []*wm.WME {
	out := make([]*wm.WME, 0, len(n.byClass[class]))
	for _, w := range n.byClass[class] {
		out = append(out, w)
	}
	sortByID(out)
	return out
}

// ConflictSet recomputes the full conflict set.
func (n *Naive) ConflictSet() *ConflictSet {
	cs := NewConflictSet()
	for _, r := range n.rules {
		for _, in := range MatchRule(n, r) {
			cs.Add(in)
		}
	}
	return cs
}

func sortByID(ws []*wm.WME) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
}
