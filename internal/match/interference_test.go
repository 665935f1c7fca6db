package match

import (
	"fmt"
	"sync"
	"testing"

	"pdps/internal/wm"
)

// imRule builds a single-CE rule reading readClass and modifying the
// matched tuple of writeClass (readClass when writeClass is "").
func imRule(name, readClass, writeClass string) *Rule {
	r := &Rule{
		Name: name,
		Conditions: []Condition{
			{Class: readClass, Tests: []AttrTest{{Attr: "v", Op: OpEq, Var: "x"}}},
		},
	}
	if writeClass == "" {
		r.Actions = []Action{{Kind: ActModify, CE: 0, Assigns: []AttrAssign{
			{Attr: "v", Expr: ConstExpr{Val: wm.Int(1)}}}}}
	} else {
		r.Conditions = append(r.Conditions, Condition{
			Class: writeClass, Tests: []AttrTest{{Attr: "v", Op: OpEq, Var: "y"}}})
		r.Actions = []Action{{Kind: ActModify, CE: 1, Assigns: []AttrAssign{
			{Attr: "v", Expr: ConstExpr{Val: wm.Int(1)}}}}}
	}
	return r
}

// TestInterferenceMatrixMatchesPairwise checks every matrix cell
// against the direct pairwise Interferes computation, covering both
// the lazy-row path and the name-based lookup.
func TestInterferenceMatrixMatchesPairwise(t *testing.T) {
	rules := []*Rule{
		imRule("a", "p", ""),  // reads+writes p.v
		imRule("b", "p", "q"), // reads p.v,q.v; writes q.v
		imRule("c", "r", ""),  // reads+writes r.v
		imRule("d", "s", "r"), // reads s.v,r.v; writes r.v
	}
	m := NewInterferenceMatrix(rules)
	for i, a := range rules {
		for j, b := range rules {
			want := Interferes(a, b)
			if got := m.Row(i)[j]; got != want {
				t.Errorf("Row(%s)[%s] = %v, want %v", a.Name, b.Name, got, want)
			}
			if got := m.Interferes(a.Name, b.Name); got != want {
				t.Errorf("Interferes(%s,%s) = %v, want %v", a.Name, b.Name, got, want)
			}
		}
	}
	// Spot-check the semantics the static batcher depends on: a rule
	// with writes always self-interferes; rules over disjoint classes
	// never interfere.
	if !m.Interferes("a", "a") {
		t.Error("writing rule must self-interfere")
	}
	if m.Interferes("a", "c") {
		t.Error("class-disjoint rules must not interfere")
	}
	if !m.Interferes("c", "d") {
		t.Error("d writes r.v which c reads: must interfere")
	}
}

// TestInterferenceMatrixUnknownName requires the conservative default:
// a name outside the rule set interferes with everything.
func TestInterferenceMatrixUnknownName(t *testing.T) {
	m := NewInterferenceMatrix([]*Rule{imRule("a", "p", "")})
	if !m.Interferes("a", "ghost") || !m.Interferes("ghost", "a") {
		t.Fatal("unknown rule names must be treated as interfering")
	}
}

// TestInterferenceMatrixConcurrentRows hammers lazy row construction
// from many goroutines (meaningful under -race): all readers must see
// the same completed row.
func TestInterferenceMatrixConcurrentRows(t *testing.T) {
	var rules []*Rule
	for i := 0; i < 16; i++ {
		rules = append(rules, imRule(fmt.Sprintf("r%d", i), fmt.Sprintf("c%d", i%4), ""))
	}
	m := NewInterferenceMatrix(rules)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range rules {
				row := m.Row((i + g) % len(rules))
				if len(row) != len(rules) {
					t.Errorf("row length %d, want %d", len(row), len(rules))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Same class ⇒ interfere, different class ⇒ not.
	if !m.Row(0)[4] {
		t.Error("r0 and r4 share class c0: must interfere")
	}
	if m.Row(0)[1] {
		t.Error("r0 (c0) and r1 (c1) are disjoint: must not interfere")
	}
}
