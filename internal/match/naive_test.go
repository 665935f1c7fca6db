package match

import (
	"slices"
	"testing"

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

func TestNaiveJoinMatch(t *testing.T) {
	s := wm.NewStore()
	n := NewNaive()
	if err := n.AddRule(ruleAB()); err != nil {
		t.Fatal(err)
	}

	p1 := s.Insert("part", attrs("id", 1, "status", "ready"))
	p2 := s.Insert("part", attrs("id", 2, "status", "ready"))
	p3 := s.Insert("part", attrs("id", 3, "status", "raw"))
	m1 := s.Insert("machine", attrs("accepts", 1, "free", true))
	m2 := s.Insert("machine", attrs("accepts", 2, "free", false))
	for _, w := range []*wm.WME{p1, p2, p3, m1, m2} {
		n.Insert(w)
	}

	cs := n.ConflictSet()
	if cs.Len() != 1 {
		t.Fatalf("conflict set = %d instantiations, want 1: %v", cs.Len(), cs.All())
	}
	in := cs.All()[0]
	if in.WMEs[0].ID != p1.ID || in.WMEs[1].ID != m1.ID {
		t.Fatalf("wrong instantiation %v", in)
	}
	if !in.Bindings["x"].Equal(wm.Int(1)) {
		t.Fatalf("binding x = %v, want 1", in.Bindings["x"])
	}
}

func TestNaiveNegatedCE(t *testing.T) {
	// Fire for parts that have no defect record with the same id.
	r := &Rule{
		Name: "ship",
		Conditions: []Condition{
			{Class: "part", Tests: []AttrTest{{Attr: "id", Op: OpEq, Var: "x"}}},
			{Class: "defect", Negated: true, Tests: []AttrTest{{Attr: "part", Op: OpEq, Var: "x"}}},
		},
		Actions: []Action{{Kind: ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	n := NewNaive()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	p1 := s.Insert("part", attrs("id", 1))
	p2 := s.Insert("part", attrs("id", 2))
	d := s.Insert("defect", attrs("part", 2))
	for _, w := range []*wm.WME{p1, p2, d} {
		n.Insert(w)
	}
	cs := n.ConflictSet()
	if cs.Len() != 1 || cs.All()[0].WMEs[0].ID != p1.ID {
		t.Fatalf("conflict set = %v, want only part 1", cs.All())
	}
	// Removing the defect enables part 2.
	n.Remove(d)
	if got := n.ConflictSet().Len(); got != 2 {
		t.Fatalf("after defect removal: %d instantiations, want 2", got)
	}
}

func TestNaiveMissingAttributeFailsTest(t *testing.T) {
	r := &Rule{
		Name: "r",
		Conditions: []Condition{
			{Class: "a", Tests: []AttrTest{{Attr: "v", Op: OpGt, Const: wm.Int(0)}}},
		},
		Actions: []Action{{Kind: ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	n := NewNaive()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	n.Insert(s.Insert("a", attrs("other", 1)))
	if n.ConflictSet().Len() != 0 {
		t.Fatal("WME without the tested attribute must not match")
	}
}

func TestNaiveDuplicateRuleRejected(t *testing.T) {
	n := NewNaive()
	if err := n.AddRule(ruleAB()); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(ruleAB()); err == nil {
		t.Fatal("duplicate rule name must be rejected")
	}
}

func TestNaiveSelfJoinDistinctWMEs(t *testing.T) {
	// Two CEs over the same class: (a ^v <x>) (a ^v > <x>) — ordered pairs.
	r := &Rule{
		Name: "pairs",
		Conditions: []Condition{
			{Class: "a", Tests: []AttrTest{{Attr: "v", Op: OpEq, Var: "x"}}},
			{Class: "a", Tests: []AttrTest{{Attr: "v", Op: OpGt, Var: "x"}}},
		},
		Actions: []Action{{Kind: ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	n := NewNaive()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		n.Insert(s.Insert("a", attrs("v", i)))
	}
	// Pairs with v_j > v_i: (1,2) (1,3) (2,3).
	if got := n.ConflictSet().Len(); got != 3 {
		t.Fatalf("self-join: %d instantiations, want 3", got)
	}
}

func TestConflictSetOperations(t *testing.T) {
	s := wm.NewStore()
	n := NewNaive()
	if err := n.AddRule(ruleAB()); err != nil {
		t.Fatal(err)
	}
	p := s.Insert("part", attrs("id", 1, "status", "ready"))
	m := s.Insert("machine", attrs("accepts", 1, "free", true))
	n.Insert(p)
	n.Insert(m)
	cs := n.ConflictSet()
	in := cs.All()[0]
	if !cs.Contains(in) {
		t.Fatal("Contains failed")
	}
	// Membership is by identity: an instantiation with in's key is not in.
	twin := &Instantiation{Rule: in.Rule, WMEs: in.WMEs, Bindings: in.Bindings}
	if cs.Contains(twin) {
		t.Fatal("Contains matched an instantiation by key")
	}
	if cs.RemoveIf(func(in *Instantiation) bool { return in.Uses(p) }); cs.Len() != 0 || cs.Contains(in) {
		t.Fatal("RemoveIf failed")
	}
}

// TestConflictSetSlots: removal moves the last member into the freed
// slot, and the journal records the very pointers added and removed.
func TestConflictSetSlots(t *testing.T) {
	cs := new(ConflictSet)
	cs.TrackChanges(true)
	r := &Rule{Name: "r"}
	ins := make([]*Instantiation, 4)
	for i := range ins {
		ins[i] = &Instantiation{Rule: r}
		cs.Add(ins[i])
	}
	cs.Remove(ins[1])
	cs.Remove(ins[3])
	cs.RemoveIf(func(in *Instantiation) bool { return in == ins[0] })
	if cs.Len() != 1 || !cs.Contains(ins[2]) {
		t.Fatalf("members: %d, want only the third", cs.Len())
	}
	for _, i := range []int{0, 1, 3} {
		if cs.Contains(ins[i]) {
			t.Fatalf("removed instantiation %d still a member", i)
		}
	}
	added, removed := cs.TakeChanges()
	if !slices.Equal(added, ins) || !slices.Equal(removed, []*Instantiation{ins[1], ins[3], ins[0]}) {
		t.Fatalf("journal: added %v removed %v", added, removed)
	}
}

func TestInstantiationKeyAndTimeTags(t *testing.T) {
	s := wm.NewStore()
	p := s.Insert("part", attrs("id", 1, "status", "ready"))
	m := s.Insert("machine", attrs("accepts", 1, "free", true))
	in := &Instantiation{Rule: ruleAB(), WMEs: []*wm.WME{p, m}}
	tags := in.AppendTimeTags([]uint64{7})
	if len(tags) != 3 || tags[0] != 7 || tags[1] != m.TimeTag || tags[2] != p.TimeTag {
		t.Fatalf("AppendTimeTags = %v, want [7 %d %d]: dst kept, tail descending", tags, m.TimeTag, p.TimeTag)
	}
	if !in.Uses(p) || !in.Uses(m) {
		t.Fatal("Uses failed")
	}
	// A newer version of p (same ID, new tag) is a different match.
	_, p2, err := s.Modify(p.ID, []wm.AttrValue{{Name: "status", Val: wm.Sym("ready")}})
	if err != nil {
		t.Fatal(err)
	}
	if in.Uses(p2) {
		t.Fatal("Uses must distinguish WME versions")
	}
	in2 := &Instantiation{Rule: ruleAB(), WMEs: []*wm.WME{p2, m}}
	if in.Key() == in2.Key() {
		t.Fatal("keys must differ across WME versions")
	}
}
