// Package match defines the matcher-neutral rule intermediate
// representation shared by the Rete and TREAT matchers and the
// execution engines: condition elements, right-hand-side actions,
// instantiations, the conflict set, and read/write-set extraction used
// by the static interference analysis and the lock manager.
package match

import (
	"fmt"
	"strings"

	"pdps/internal/wm"
)

// Op is a comparison operator in an attribute test.
type Op uint8

// Comparison operators. OpEq on a variable's first occurrence binds it;
// later occurrences (and all other operators) test against the binding.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the operator's surface syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Eval applies the operator to two values. Ordering operators on
// non-comparable kinds are false.
func (o Op) Eval(a, b wm.Value) bool {
	switch o {
	case OpEq:
		return a.Equal(b)
	case OpNe:
		return !a.Equal(b)
	}
	if !(a.Numeric() && b.Numeric()) &&
		!(a.Kind() == b.Kind() && (a.Kind() == wm.KindString || a.Kind() == wm.KindSymbol)) {
		return false
	}
	c := a.Compare(b)
	switch o {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// AttrTest constrains one attribute of a condition element. Exactly
// one of Const / Var / OneOf is meaningful: Var is empty for a
// constant test, and a non-empty OneOf is OPS5's value disjunction
// << v1 v2 ... >> (attribute equals any listed value; Op is ignored).
type AttrTest struct {
	Attr  string
	Op    Op
	Const wm.Value
	Var   string
	OneOf []wm.Value
}

// IsVar reports whether the test refers to a variable.
func (t AttrTest) IsVar() bool { return t.Var != "" }

// IsDisjunction reports whether the test is a value disjunction.
func (t AttrTest) IsDisjunction() bool { return len(t.OneOf) > 0 }

// Matches evaluates a constant or disjunction test against a value
// (variable tests are evaluated against bindings by the matchers).
func (t AttrTest) Matches(v wm.Value) bool {
	if t.IsDisjunction() {
		for _, alt := range t.OneOf {
			if v.Equal(alt) {
				return true
			}
		}
		return false
	}
	return t.Op.Eval(v, t.Const)
}

// String renders the test in rule-language syntax, e.g. ^status <> done.
func (t AttrTest) String() string {
	if t.IsDisjunction() {
		var b strings.Builder
		fmt.Fprintf(&b, "^%s <<", t.Attr)
		for _, v := range t.OneOf {
			b.WriteByte(' ')
			b.WriteString(v.String())
		}
		b.WriteString(" >>")
		return b.String()
	}
	rhs := t.Const.String()
	if t.IsVar() {
		rhs = "<" + t.Var + ">"
	}
	if t.Op == OpEq {
		return fmt.Sprintf("^%s %s", t.Attr, rhs)
	}
	return fmt.Sprintf("^%s %s %s", t.Attr, t.Op, rhs)
}

// Condition is one condition element (CE) of a rule's LHS: a class
// pattern with attribute tests, possibly negated. A negated CE is
// satisfied when no WME matches it.
type Condition struct {
	Class   string
	Tests   []AttrTest
	Negated bool
}

// String renders the CE in rule-language syntax.
func (c Condition) String() string {
	var b strings.Builder
	if c.Negated {
		b.WriteByte('-')
	}
	b.WriteByte('(')
	b.WriteString(c.Class)
	for _, t := range c.Tests {
		b.WriteByte(' ')
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// ActionKind discriminates RHS actions.
type ActionKind uint8

// The RHS operations of the production-system model (Section 2 of the
// paper): create, modify and delete, plus halt to stop the interpreter.
const (
	ActMake ActionKind = iota
	ActModify
	ActRemove
	ActHalt
)

// String returns the action keyword.
func (k ActionKind) String() string {
	switch k {
	case ActMake:
		return "make"
	case ActModify:
		return "modify"
	case ActRemove:
		return "remove"
	case ActHalt:
		return "halt"
	}
	return fmt.Sprintf("ActionKind(%d)", uint8(k))
}

// AttrAssign sets one attribute in a make or modify action.
type AttrAssign struct {
	Attr string
	Expr Expr
}

// Action is one RHS operation. Make uses Class and Assigns; Modify and
// Remove use CE (the 0-based index of the positive condition element
// whose matched WME is the target); Modify also uses Assigns.
type Action struct {
	Kind    ActionKind
	Class   string
	CE      int
	Assigns []AttrAssign
}

// String renders the action in rule-language syntax.
func (a Action) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(a.Kind.String())
	switch a.Kind {
	case ActMake:
		b.WriteByte(' ')
		b.WriteString(a.Class)
	case ActModify, ActRemove:
		fmt.Fprintf(&b, " %d", a.CE+1)
	}
	for _, as := range a.Assigns {
		fmt.Fprintf(&b, " ^%s %s", as.Attr, as.Expr)
	}
	b.WriteByte(')')
	return b.String()
}

// Rule is a compiled production: a named LHS/RHS pair with an optional
// static priority used by the priority conflict-resolution strategy.
type Rule struct {
	Name       string
	Priority   int
	Conditions []Condition
	Actions    []Action
	// ActionReads lists positive-CE indices whose matched WMEs the RHS
	// re-reads during action execution (beyond the LHS bindings). The
	// dynamic engine takes Ra locks on them per Section 4.3; matched
	// WMEs not listed here and not written keep only their Rc lock.
	ActionReads []int
}

// Validate checks structural well-formedness: at least one positive CE,
// variables bound before non-binding use, action CE indices in range,
// and action expressions referring only to bound variables.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("match: rule with empty name")
	}
	if len(r.Conditions) == 0 {
		return fmt.Errorf("match: rule %s: no condition elements", r.Name)
	}
	npos := 0
	for _, c := range r.Conditions {
		if !c.Negated {
			npos++
		}
	}
	if npos == 0 {
		return fmt.Errorf("match: rule %s: no positive condition elements", r.Name)
	}
	bound := make(map[string]bool)
	for i, c := range r.Conditions {
		for _, t := range c.Tests {
			if !t.IsVar() {
				continue
			}
			if t.Op == OpEq && !c.Negated {
				bound[t.Var] = true
				continue
			}
			if !bound[t.Var] {
				return fmt.Errorf("match: rule %s: CE %d uses unbound variable <%s>", r.Name, i+1, t.Var)
			}
		}
	}
	if len(r.Actions) == 0 {
		return fmt.Errorf("match: rule %s: no actions", r.Name)
	}
	for i, a := range r.Actions {
		switch a.Kind {
		case ActMake:
			if a.Class == "" {
				return fmt.Errorf("match: rule %s: action %d: make without class", r.Name, i+1)
			}
		case ActModify, ActRemove:
			if a.CE < 0 || a.CE >= npos {
				return fmt.Errorf("match: rule %s: action %d: CE index %d out of range (rule has %d positive CEs)",
					r.Name, i+1, a.CE+1, npos)
			}
			if a.Kind == ActRemove && len(a.Assigns) > 0 {
				return fmt.Errorf("match: rule %s: action %d: remove takes no assignments", r.Name, i+1)
			}
		case ActHalt:
			if len(a.Assigns) > 0 || a.Class != "" {
				return fmt.Errorf("match: rule %s: action %d: halt takes no operands", r.Name, i+1)
			}
		default:
			return fmt.Errorf("match: rule %s: action %d: unknown kind %d", r.Name, i+1, a.Kind)
		}
		for _, as := range a.Assigns {
			for _, v := range as.Expr.Vars() {
				if !bound[v] {
					return fmt.Errorf("match: rule %s: action %d: unbound variable <%s>", r.Name, i+1, v)
				}
			}
		}
	}
	for _, ce := range r.ActionReads {
		if ce < 0 || ce >= npos {
			return fmt.Errorf("match: rule %s: action-read CE index %d out of range", r.Name, ce+1)
		}
	}
	return nil
}

// String renders the whole rule in rule-language syntax.
func (r *Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(p %s", r.Name)
	if r.Priority != 0 {
		fmt.Fprintf(&b, " ^priority %d", r.Priority)
	}
	for _, c := range r.Conditions {
		b.WriteString("\n  ")
		b.WriteString(c.String())
	}
	b.WriteString("\n  -->")
	for _, a := range r.Actions {
		b.WriteString("\n  ")
		b.WriteString(a.String())
	}
	b.WriteString(")")
	return b.String()
}
