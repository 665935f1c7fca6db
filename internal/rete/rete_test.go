package rete

import (
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

func attrs(kv ...interface{}) map[string]wm.Value {
	m := make(map[string]wm.Value)
	for i := 0; i < len(kv); i += 2 {
		k := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int:
			m[k] = wm.Int(int64(v))
		case string:
			m[k] = wm.Sym(v)
		case bool:
			m[k] = wm.Bool(v)
		case wm.Value:
			m[k] = v
		default:
			panic("bad attr value")
		}
	}
	return m
}

func joinRule() *match.Rule {
	return &match.Rule{
		Name: "pass",
		Conditions: []match.Condition{
			{Class: "part", Tests: []match.AttrTest{
				{Attr: "id", Op: match.OpEq, Var: "x"},
				{Attr: "status", Op: match.OpEq, Const: wm.Sym("ready")},
			}},
			{Class: "machine", Tests: []match.AttrTest{
				{Attr: "accepts", Op: match.OpEq, Var: "x"},
				{Attr: "free", Op: match.OpEq, Const: wm.Bool(true)},
			}},
		},
		Actions: []match.Action{{Kind: match.ActModify, CE: 0,
			Assigns: []match.AttrAssign{{Attr: "status", Expr: match.ConstExpr{Val: wm.Sym("done")}}}}},
	}
}

func TestReteBasicJoin(t *testing.T) {
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(joinRule()); err != nil {
		t.Fatal(err)
	}
	p1 := s.Insert("part", attrs("id", 1, "status", "ready"))
	m1 := s.Insert("machine", attrs("accepts", 1, "free", true))
	m2 := s.Insert("machine", attrs("accepts", 2, "free", true))
	n.Insert(p1)
	n.Insert(m1)
	n.Insert(m2)

	cs := n.ConflictSet()
	if cs.Len() != 1 {
		t.Fatalf("conflict set = %d, want 1: %v", cs.Len(), cs.All())
	}
	in := cs.All()[0]
	if in.WMEs[0] != p1 || in.WMEs[1] != m1 {
		t.Fatalf("wrong match: %v", in)
	}
	if !in.Bindings["x"].Equal(wm.Int(1)) {
		t.Fatalf("binding x = %v", in.Bindings["x"])
	}
}

func TestReteRemovalRetractsInstantiations(t *testing.T) {
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(joinRule()); err != nil {
		t.Fatal(err)
	}
	p := s.Insert("part", attrs("id", 1, "status", "ready"))
	m := s.Insert("machine", attrs("accepts", 1, "free", true))
	n.Insert(p)
	n.Insert(m)
	if n.ConflictSet().Len() != 1 {
		t.Fatal("setup failed")
	}
	n.Remove(p)
	if n.ConflictSet().Len() != 0 {
		t.Fatal("removal of part did not retract instantiation")
	}
	n.Insert(p)
	if n.ConflictSet().Len() != 1 {
		t.Fatal("re-insert did not restore instantiation")
	}
	n.Remove(m)
	if n.ConflictSet().Len() != 0 {
		t.Fatal("removal of machine did not retract instantiation")
	}
}

func TestReteNegativeNode(t *testing.T) {
	r := &match.Rule{
		Name: "ship",
		Conditions: []match.Condition{
			{Class: "part", Tests: []match.AttrTest{{Attr: "id", Op: match.OpEq, Var: "x"}}},
			{Class: "defect", Negated: true, Tests: []match.AttrTest{{Attr: "part", Op: match.OpEq, Var: "x"}}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	p1 := s.Insert("part", attrs("id", 1))
	n.Insert(p1)
	if n.ConflictSet().Len() != 1 {
		t.Fatal("part without defect should match")
	}
	d := s.Insert("defect", attrs("part", 1))
	n.Insert(d)
	if n.ConflictSet().Len() != 0 {
		t.Fatal("defect arrival must retract the match")
	}
	n.Remove(d)
	if n.ConflictSet().Len() != 1 {
		t.Fatal("defect removal must restore the match")
	}
	// An unrelated defect must not block.
	d2 := s.Insert("defect", attrs("part", 2))
	n.Insert(d2)
	if n.ConflictSet().Len() != 1 {
		t.Fatal("unrelated defect must not retract")
	}
}

func TestReteNegativeLast_WMEBeforeRule(t *testing.T) {
	// The negated CE's WME arrives before the positive WMEs it blocks:
	// the negative node's token for a (v 2) is born blocked, while the
	// one for a (v 1) propagates to the production.
	r := &match.Rule{
		Name: "lone",
		Conditions: []match.Condition{
			{Class: "a", Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
			{Class: "b", Negated: true, Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	n.Insert(s.Insert("b", attrs("v", 2)))
	n.Insert(s.Insert("a", attrs("v", 1)))
	n.Insert(s.Insert("a", attrs("v", 2)))
	cs := n.ConflictSet()
	if cs.Len() != 1 {
		t.Fatalf("negation last: conflict set = %d, want 1", cs.Len())
	}
	if !cs.All()[0].Bindings["x"].Equal(wm.Int(1)) {
		t.Fatalf("wrong instantiation %v", cs.All()[0])
	}
}

func TestReteNegativeFirstCE(t *testing.T) {
	r := &match.Rule{
		Name: "boot",
		Conditions: []match.Condition{
			{Class: "started", Negated: true},
			{Class: "config"},
		},
		Actions: []match.Action{{Kind: match.ActMake, Class: "started"}},
	}
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	c := s.Insert("config", attrs("v", 1))
	n.Insert(c)
	if n.ConflictSet().Len() != 1 {
		t.Fatal("negated-first rule should match")
	}
	st := s.Insert("started", nil)
	n.Insert(st)
	if n.ConflictSet().Len() != 0 {
		t.Fatal("started WME must retract the match")
	}
}

func TestReteIntraCETest(t *testing.T) {
	// (edge ^from <x> ^to <x>) — self loops.
	r := &match.Rule{
		Name: "selfloop",
		Conditions: []match.Condition{
			{Class: "edge", Tests: []match.AttrTest{
				{Attr: "from", Op: match.OpEq, Var: "x"},
				{Attr: "to", Op: match.OpEq, Var: "x"},
			}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	n.Insert(s.Insert("edge", attrs("from", 1, "to", 2)))
	n.Insert(s.Insert("edge", attrs("from", 3, "to", 3)))
	cs := n.ConflictSet()
	if cs.Len() != 1 || !cs.All()[0].Bindings["x"].Equal(wm.Int(3)) {
		t.Fatalf("intra-CE test failed: %v", cs.All())
	}
}

func TestReteNonEqJoinTest(t *testing.T) {
	// (a ^v <x>) (b ^v > <x>)
	r := &match.Rule{
		Name: "gt",
		Conditions: []match.Condition{
			{Class: "a", Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
			{Class: "b", Tests: []match.AttrTest{{Attr: "v", Op: match.OpGt, Var: "x"}}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	n.Insert(s.Insert("a", attrs("v", 5)))
	n.Insert(s.Insert("b", attrs("v", 3)))
	n.Insert(s.Insert("b", attrs("v", 7)))
	cs := n.ConflictSet()
	if cs.Len() != 1 {
		t.Fatalf("gt join: %d matches, want 1", cs.Len())
	}
	if got := cs.All()[0].WMEs[1].Attr("v"); !got.Equal(wm.Int(7)) {
		t.Fatalf("matched b.v = %v, want 7", got)
	}
}

func TestReteThreeWayJoinAndSharing(t *testing.T) {
	mk := func(name string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: "a", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "b", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "c", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
		}
	}
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(mk("r1")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(mk("r2")); err != nil {
		t.Fatal(err)
	}
	// Alpha memories must be shared: 3 patterns for 2 rules.
	if got := n.Stats().AlphaMems; got != 3 {
		t.Fatalf("alpha memories = %d, want 3 (shared)", got)
	}
	for _, cls := range []string{"a", "b", "c"} {
		n.Insert(s.Insert(cls, attrs("k", 1)))
	}
	if n.ConflictSet().Len() != 2 {
		t.Fatalf("conflict set = %d, want 2 (one per rule)", n.ConflictSet().Len())
	}
}

func TestReteDuplicateRuleAndInvalidRule(t *testing.T) {
	n := New()
	if err := n.AddRule(joinRule()); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(joinRule()); err == nil {
		t.Fatal("duplicate rule must be rejected")
	}
	if err := n.AddRule(&match.Rule{Name: "bad"}); err == nil {
		t.Fatal("invalid rule must be rejected")
	}
}

// TestAddRuleAfterInsertRefused pins the fixed-rules contract: once a
// WME has been inserted, AddRule fails — even after that WME is
// retracted again — and the refused rule leaves the network as it was.
func TestAddRuleAfterInsertRefused(t *testing.T) {
	s := wm.NewStore()
	n := New()
	if err := n.AddRule(joinRule()); err != nil {
		t.Fatal(err)
	}
	p := s.Insert("part", attrs("id", 1, "status", "ready"))
	n.Insert(p)
	n.Insert(s.Insert("machine", attrs("accepts", 1, "free", true)))
	before := n.Topology()
	late := joinRule()
	late.Name = "late"
	if err := n.AddRule(late); err == nil {
		t.Fatal("AddRule after Insert succeeded")
	}
	if got := n.Topology(); got != before {
		t.Fatalf("refused rule changed the network: %+v, was %+v", got, before)
	}
	if plans := n.Plans(); len(plans) != 1 {
		t.Fatalf("%d plans after a refused rule, want 1", len(plans))
	}
	if n.ConflictSet().Len() != 1 {
		t.Fatalf("conflict set = %d, want 1", n.ConflictSet().Len())
	}
	n.Remove(p)
	if err := n.AddRule(late); err == nil {
		t.Fatal("AddRule on a drained network succeeded")
	}
}
