package rete

import (
	"strings"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

func TestTopologyAndSharing(t *testing.T) {
	mk := func(name string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: "a", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "b", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "c", Negated: true, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
		}
	}
	n := New()
	if err := n.AddRule(mk("r1")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(mk("r2")); err != nil {
		t.Fatal(err)
	}
	// The planner orders each rule (a, ¬c, b): the negation's expected
	// survivors undercut b's unconstrained join. Both rules share the
	// whole (a, ¬c) prefix; only the final b join is per-rule.
	top := n.Topology()
	if top.AlphaMems != 3 {
		t.Fatalf("alpha mems = %d, want 3 (shared)", top.AlphaMems)
	}
	if top.SharedAlph != 1 { // b's alpha feeds both rules' final joins
		t.Fatalf("shared alphas = %d, want 1", top.SharedAlph)
	}
	if top.ProdNodes != 2 {
		t.Fatalf("prod nodes = %d, want 2", top.ProdNodes)
	}
	if top.NegNodes != 1 { // shared ¬c level
		t.Fatalf("neg nodes = %d, want 1", top.NegNodes)
	}
	if top.JoinNodes != 3 { // shared a join + one exclusive b join per rule
		t.Fatalf("join nodes = %d, want 3", top.JoinNodes)
	}
	if top.MemNodes != 2 { // top mem + shared a beta mem
		t.Fatalf("mem nodes = %d, want 2", top.MemNodes)
	}
	if top.SharedBeta != 2 { // the a level and the ¬c level
		t.Fatalf("shared betas = %d, want 2", top.SharedBeta)
	}

}

func TestDotOutput(t *testing.T) {
	n := New()
	if err := n.AddRule(joinRule()); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	n.Insert(s.Insert("part", attrs("id", 1, "status", "ready")))

	dot := n.Dot()
	for _, frag := range []string{"digraph rete", "shape=box", "shape=diamond", "doublecircle", `"pass"`, "top ->"} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("Dot missing %q:\n%s", frag, dot)
		}
	}
	// Deterministic output.
	if n.Dot() != dot {
		t.Fatal("Dot not deterministic")
	}
}

func TestTopologyNegFirst(t *testing.T) {
	r := &match.Rule{
		Name: "negfirst",
		Conditions: []match.Condition{
			{Class: "gate", Negated: true},
			{Class: "job"},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	n := New()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	top := n.Topology()
	if top.NegNodes != 1 || top.JoinNodes != 1 || top.ProdNodes != 1 {
		t.Fatalf("topology = %+v", top)
	}
	if !strings.Contains(n.Dot(), "invhouse") {
		t.Fatal("Dot missing negative node")
	}
}
