package rete

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// csKeys snapshots a conflict set as sorted instantiation keys.
func csKeys(cs *match.ConflictSet) []string {
	var keys []string
	for _, in := range cs.All() {
		keys = append(keys, in.Key())
	}
	sort.Strings(keys)
	return keys
}

// assertDrained extends assertIndexesEmpty to the network-wide token
// bookkeeping: after working memory is fully retracted no WME may head
// a token or join-result list, no chain level's memory may hold a
// WME-bearing token, and the slabs must have taken back every token
// but the root and the WME-free negative-node tokens, and every join
// result.
func assertDrained(t *testing.T, n *Network) {
	t.Helper()
	assertIndexesEmpty(t, n)
	for w, refs := range n.byWME {
		t.Errorf("byWME still lists %v (token %v, join result %v)", w, refs.tok != nil, refs.jr != nil)
	}
	// A token whose whole ancestry is WME-free is legitimately resident
	// on an empty working memory: a chain led by negated CEs passes the
	// root token through while nothing blocks it. Anything referencing
	// a WME is a leak.
	holdsWME := func(tok *token) bool {
		for ; tok != nil; tok = tok.parent {
			if tok.w != nil {
				return true
			}
		}
		return false
	}
	for name, rc := range n.chains {
		for lvl, bl := range rc.levels {
			var src betaSource = bl.neg
			if bl.mem != nil {
				src = bl.mem
			}
			for tok := src.firstToken(); tok != nil; tok = tok.item.next {
				if holdsWME(tok) {
					t.Errorf("rule %s level %d holds a WME-bearing token after drain", name, lvl)
				}
			}
		}
	}
	want := 1 // the root
	for _, bl := range n.betaLevels {
		if bl.neg != nil {
			for tok := bl.neg.firstToken(); tok != nil; tok = tok.item.next {
				want++
			}
		}
	}
	if got := n.tokens.live; got != want {
		t.Errorf("token slab holds %d live tokens after drain, want %d (root plus WME-free negative tokens)", got, want)
	}
	if got := n.results.live; got != 0 {
		t.Errorf("join-result slab holds %d live records after drain, want 0", got)
	}
}

// TestStaticPlanOrdering checks the compile-time planner: a rule whose
// selective constant-tested CE sits last is reordered to lead with it,
// while an already well-ordered rule compiles exactly as written (the
// tie-break keeps source order).
func TestStaticPlanOrdering(t *testing.T) {
	misordered := &match.Rule{
		Name: "mis",
		Conditions: []match.Condition{
			{Class: "wide", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			{Class: "sel", Tests: []match.AttrTest{
				{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)},
				{Attr: "k", Op: match.OpEq, Var: "x"},
			}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	}
	n := New()
	if err := n.AddRule(misordered); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(chainRule("ordered", 3)); err != nil {
		t.Fatal(err)
	}
	plans := n.Plans()
	if len(plans) != 2 {
		t.Fatalf("plans = %d, want 2", len(plans))
	}
	if got, want := plans[0].Order, []int{1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("misordered rule plan = %v, want %v", got, want)
	}
	if got, want := plans[1].Order, []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("well-ordered rule plan = %v, want %v (source order)", got, want)
	}
	if s := plans[0].String(); s != "mis: sel[1] wide[0] (cost 1153)" {
		t.Fatalf("plan rendering = %q", s)
	}

}

// TestSharedPrefixSeeding checks that a second rule structurally equal
// to the first shares its beta prefix, that WMEs arriving afterwards
// reach both productions through the shared levels, and that both
// rules' instantiations list WMEs in source-CE order.
func TestSharedPrefixSeeding(t *testing.T) {
	n := New()
	if err := n.AddRule(chainRule("first", 3)); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(chainRule("second", 3)); err != nil {
		t.Fatal(err)
	}
	if top := n.Topology(); top.SharedBeta == 0 {
		t.Fatalf("identical rules share no beta levels: %+v", top)
	}
	s := wm.NewStore()
	for i := 0; i < 3; i++ {
		for c := 0; c < 3; c++ {
			n.Insert(s.Insert(fmt.Sprintf("c%d", c), map[string]wm.Value{"k": wm.Int(int64(i))}))
		}
	}
	if got := n.ConflictSet().Len(); got != 6 {
		t.Fatalf("two shared rules: %d insts, want 6", got)
	}
	for _, in := range n.ConflictSet().All() {
		if len(in.WMEs) != 3 {
			t.Fatalf("instantiation lists %d WMEs, want 3", len(in.WMEs))
		}
		for i, w := range in.WMEs {
			if want := fmt.Sprintf("c%d", i); w.Class != want {
				t.Fatalf("WME slot %d holds class %s, want %s (source order)", i, w.Class, want)
			}
		}
	}
}
