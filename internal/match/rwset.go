package match

import (
	"fmt"
	"sort"
	"strings"
)

// ClassAttr names a column of working memory: a class (relation) and an
// attribute. An empty Attr denotes the whole relation — used for
// existence reads (negated CEs and CEs that test no attribute), tuple
// creation (make) and tuple deletion (remove), which conflict with
// every attribute of the class.
type ClassAttr struct {
	Class string
	Attr  string
}

// String renders the column as class.attr or class.* for whole-relation.
func (c ClassAttr) String() string {
	if c.Attr == "" {
		return c.Class + ".*"
	}
	return c.Class + "." + c.Attr
}

// Overlaps reports whether two columns can denote the same data: same
// class, and equal attributes or either side whole-relation.
func (c ClassAttr) Overlaps(o ClassAttr) bool {
	if c.Class != o.Class {
		return false
	}
	return c.Attr == "" || o.Attr == "" || c.Attr == o.Attr
}

// Mode is how a firing touches a datum, one per lock mode of Section
// 4.3: a condition Read (Rc), an ActionRead (Ra) and a Write (Wa).
type Mode uint8

// The three access modes.
const (
	Read Mode = iota
	ActionRead
	Write
)

// Access is one column a rule's firing touches: on the matched tuple
// of positive CE number CE, or, with CE -1, on the relation as a whole.
type Access struct {
	Col  ClassAttr
	CE   int
	Mode Mode
}

// Footprint calls visit for every column the rule's firing reads or
// writes. It is the one derivation of a rule's read and write sets:
// RuleRWSet projects it onto columns (Section 4.1), and
// Instantiation.Footprint binds it to tuples for the lock plans
// (Section 4.3) and Static's tuple guard.
//
//   - A positive CE reads its tested attributes of its tuple, or the
//     tuple's existence (the whole-relation column) if it tests none.
//   - A negated CE reads its tested attributes and the whole relation.
//   - ActionReads re-read their whole tuples.
//   - make writes the whole relation; remove writes its whole tuple;
//     modify writes the assigned attributes of its tuple (all of it if
//     it assigns none).
func (r *Rule) Footprint(visit func(Access)) {
	pos := 0
	for _, c := range r.Conditions {
		at := -1
		if !c.Negated {
			at = pos
			pos++
		}
		for _, t := range c.Tests {
			visit(Access{ClassAttr{c.Class, t.Attr}, at, Read})
		}
		if c.Negated || len(c.Tests) == 0 {
			visit(Access{ClassAttr{c.Class, ""}, at, Read})
		}
	}
	for _, ce := range r.ActionReads {
		visit(Access{ClassAttr{r.positive(ce).Class, ""}, ce, ActionRead})
	}
	for _, a := range r.Actions {
		switch a.Kind {
		case ActMake:
			visit(Access{ClassAttr{a.Class, ""}, -1, Write})
		case ActModify, ActRemove:
			class := r.positive(a.CE).Class
			for _, as := range a.Assigns {
				visit(Access{ClassAttr{class, as.Attr}, a.CE, Write})
			}
			if len(a.Assigns) == 0 {
				visit(Access{ClassAttr{class, ""}, a.CE, Write})
			}
		}
	}
}

// positive returns the i-th positive condition element.
func (r *Rule) positive(i int) *Condition {
	for j := range r.Conditions {
		if !r.Conditions[j].Negated {
			if i == 0 {
				return &r.Conditions[j]
			}
			i--
		}
	}
	return nil
}

// Touch is one datum an instantiation's firing touches: tuple ID of
// Class, or the whole relation when ID is 0 (store IDs start at 1).
type Touch struct {
	Class string
	ID    int64
	Mode  Mode
}

// Footprint binds the rule's footprint to the matched tuples, calling
// visit once per access (a tuple tested twice is visited twice).
func (in *Instantiation) Footprint(visit func(Touch)) {
	in.Rule.Footprint(func(a Access) {
		t := Touch{Class: a.Col.Class, Mode: a.Mode}
		if a.CE >= 0 {
			t.ID = in.WMEs[a.CE].ID
		}
		visit(t)
	})
}

// Clashes reports whether a tuple one firing writes is read or written
// by the other. A modify re-tags its whole tuple, retiring every
// instantiation that matched the old version whatever attributes they
// name. Relation accesses are left to the rule-level Interferes.
func (in *Instantiation) Clashes(o *Instantiation) bool {
	clash := false
	in.Footprint(func(a Touch) {
		if a.ID == 0 || clash {
			return
		}
		o.Footprint(func(b Touch) {
			clash = clash || b.ID == a.ID && (a.Mode == Write || b.Mode == Write)
		})
	})
	return clash
}

// RWSet is the static read and write set of a rule over working-memory
// columns, the input to the static interference analysis (Section 4.1).
type RWSet struct {
	Reads  map[ClassAttr]bool
	Writes map[ClassAttr]bool
}

// RuleRWSet projects the rule's footprint onto columns. Action
// re-reads are left out: their tuples are already condition reads, and
// Clashes covers a write to the same tuple.
func RuleRWSet(r *Rule) RWSet {
	s := RWSet{Reads: make(map[ClassAttr]bool), Writes: make(map[ClassAttr]bool)}
	r.Footprint(func(a Access) {
		switch a.Mode {
		case Read:
			s.Reads[a.Col] = true
		case Write:
			s.Writes[a.Col] = true
		}
	})
	return s
}

// Interferes reports whether two rules interfere: one's writes overlap
// the other's reads or writes (read-write or write-write conflict over
// some column). Per the paper, non-interfering productions can fire in
// parallel under the static approach.
func Interferes(a, b *Rule) bool { return RuleRWSet(a).Interferes(RuleRWSet(b)) }

// Interferes is the symmetric rule-level relation over the sets.
func (s RWSet) Interferes(o RWSet) bool {
	return writesOverlap(s.Writes, o.Reads) ||
		writesOverlap(s.Writes, o.Writes) ||
		writesOverlap(o.Writes, s.Reads)
}

func writesOverlap(w, other map[ClassAttr]bool) bool {
	for cw := range w {
		for co := range other {
			if cw.Overlaps(co) {
				return true
			}
		}
	}
	return false
}

// String renders the set for debugging, columns sorted.
func (s RWSet) String() string {
	return fmt.Sprintf("reads{%s} writes{%s}", joinCols(s.Reads), joinCols(s.Writes))
}

func joinCols(m map[ClassAttr]bool) string {
	cols := make([]string, 0, len(m))
	for c := range m {
		cols = append(cols, c.String())
	}
	sort.Strings(cols)
	return strings.Join(cols, ", ")
}
