package treat

import (
	"fmt"
	"math/rand"
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
			}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
}

func TestTreatJoinAndRetract(t *testing.T) {
	s := wm.NewStore()
	m := New()
	if err := m.AddRule(joinRule()); err != nil {
		t.Fatal(err)
	}
	p := s.Insert("part", attrs("id", 1, "status", "ready"))
	mc := s.Insert("machine", attrs("accepts", 1))
	m.Insert(p)
	m.Insert(mc)
	if m.ConflictSet().Len() != 1 {
		t.Fatalf("conflict set = %d, want 1", m.ConflictSet().Len())
	}
	m.Remove(p)
	if m.ConflictSet().Len() != 0 {
		t.Fatal("removal did not retract")
	}
}

func TestTreatNegated(t *testing.T) {
	r := &match.Rule{
		Name: "lone",
		Conditions: []match.Condition{
			{Class: "a", Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
			{Class: "b", Negated: true, Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	s := wm.NewStore()
	m := New()
	if err := m.AddRule(r); err != nil {
		t.Fatal(err)
	}
	a := s.Insert("a", attrs("v", 1))
	m.Insert(a)
	if m.ConflictSet().Len() != 1 {
		t.Fatal("unblocked instantiation missing")
	}
	b := s.Insert("b", attrs("v", 1))
	m.Insert(b)
	if m.ConflictSet().Len() != 0 {
		t.Fatal("blocker insert did not retract")
	}
	m.Remove(b)
	if m.ConflictSet().Len() != 1 {
		t.Fatal("blocker removal did not restore")
	}
}

func TestTreatDuplicateRule(t *testing.T) {
	m := New()
	if err := m.AddRule(joinRule()); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRule(joinRule()); err == nil {
		t.Fatal("duplicate must be rejected")
	}
}

// randomRule mirrors the generator used in the rete oracle tests.
func randomRule(rng *rand.Rand, name string) *match.Rule {
	numCE := 1 + rng.Intn(3)
	var conds []match.Condition
	bound := false
	for i := 0; i < numCE; i++ {
		c := match.Condition{Class: fmt.Sprintf("c%d", rng.Intn(4))}
		if rng.Intn(2) == 0 {
			ops := []match.Op{match.OpEq, match.OpNe, match.OpLt, match.OpGt, match.OpLe, match.OpGe}
			c.Tests = append(c.Tests, match.AttrTest{
				Attr:  fmt.Sprintf("a%d", rng.Intn(3)),
				Op:    ops[rng.Intn(len(ops))],
				Const: wm.Int(int64(rng.Intn(4))),
			})
		}
		if i == 0 || !bound {
			if rng.Intn(2) == 0 {
				c.Tests = append(c.Tests, match.AttrTest{
					Attr: fmt.Sprintf("a%d", rng.Intn(3)), Op: match.OpEq, Var: "x"})
				bound = true
			}
		} else {
			ops := []match.Op{match.OpEq, match.OpNe, match.OpLt, match.OpGt}
			c.Tests = append(c.Tests, match.AttrTest{
				Attr: fmt.Sprintf("a%d", rng.Intn(3)),
				Op:   ops[rng.Intn(len(ops))], Var: "x"})
		}
		if i > 0 && bound && rng.Intn(4) == 0 {
			c.Negated = true
		}
		conds = append(conds, c)
	}
	if conds[0].Negated {
		conds[0].Negated = false
	}
	r := &match.Rule{Name: name, Conditions: conds,
		Actions: []match.Action{{Kind: match.ActHalt}}}
	if r.Validate() != nil {
		for i := range r.Conditions {
			var keep []match.AttrTest
			for _, t := range r.Conditions[i].Tests {
				if !t.IsVar() {
					keep = append(keep, t)
				}
			}
			r.Conditions[i].Tests = keep
			r.Conditions[i].Negated = false
		}
	}
	return r
}

// journalMirror is a conflict set rebuilt only from a matcher's
// TakeChanges journal, the way the engine's agenda follows the set.
type journalMirror map[string]*match.Instantiation

// drain applies cs's journal. Keys journaled as both removed and added
// are resolved by Contains; a later addition under a key replaces an
// earlier one.
func (m journalMirror) drain(cs *match.ConflictSet) {
	added, removed := cs.TakeChanges()
	for _, k := range removed {
		if !cs.Contains(k) {
			delete(m, k)
		}
	}
	for _, in := range added {
		if cs.Contains(in.Key()) {
			m[in.Key()] = in
		}
	}
}

// equal reports how the mirror differs from want: keys, and the very
// WMEs each instantiation matched.
func (m journalMirror) equal(want *match.ConflictSet) error {
	if len(m) != want.Len() {
		return fmt.Errorf("mirror has %d members, want %d", len(m), want.Len())
	}
	for _, in := range want.All() {
		got := m[in.Key()]
		if got == nil {
			return fmt.Errorf("mirror lacks %s", in.Key())
		}
		if len(got.WMEs) != len(in.WMEs) {
			return fmt.Errorf("%s: mirror holds %d WMEs, want %d", in.Key(), len(got.WMEs), len(in.WMEs))
		}
		for i := range in.WMEs {
			if got.WMEs[i] != in.WMEs[i] {
				return fmt.Errorf("%s: mirror WME %d is %v, want %v", in.Key(), i, got.WMEs[i], in.WMEs[i])
			}
		}
	}
	return nil
}

// TestTreatMatchesNaiveOracle requires TREAT to agree with the naive
// matcher on random rule sets under random insert/remove streams. It
// also replays TREAT's change journal into a mirror and requires the
// mirror to equal the naive set; even seeds switch tracking on before
// the first insert, odd ones part-way through, when the set is
// populated.
func TestTreatMatchesNaiveOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := wm.NewStore()
		tr := New()
		naive := match.NewNaive()
		for i := 0; i < 1+rng.Intn(4); i++ {
			r := randomRule(rng, fmt.Sprintf("r%d", i))
			if err := tr.AddRule(r); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := naive.AddRule(r); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		var live []*wm.WME
		var mirror journalMirror
		trackAt := int(seed%2) * 30
		for step := 0; step < 60; step++ {
			if step == trackAt {
				tr.TrackChanges(true)
				mirror = journalMirror{}
			}
			if len(live) == 0 || rng.Intn(3) > 0 {
				a := map[string]wm.Value{}
				for i := 0; i < 3; i++ {
					if rng.Intn(3) > 0 {
						a[fmt.Sprintf("a%d", i)] = wm.Int(int64(rng.Intn(4)))
					}
				}
				w := s.Insert(fmt.Sprintf("c%d", rng.Intn(4)), a)
				live = append(live, w)
				tr.Insert(w)
				naive.Insert(w)
			} else {
				i := rng.Intn(len(live))
				w := live[i]
				live = append(live[:i], live[i+1:]...)
				tr.Remove(w)
				naive.Remove(w)
			}
			a, b := tr.ConflictSet(), naive.ConflictSet()
			if a.Len() != b.Len() {
				t.Fatalf("seed %d step %d: treat=%d naive=%d\ntreat: %v\nnaive: %v",
					seed, step, a.Len(), b.Len(), a.All(), b.All())
			}
			for _, in := range a.All() {
				if !b.Contains(in.Key()) {
					t.Fatalf("seed %d: treat has %v, naive does not", seed, in)
				}
			}
			if mirror != nil {
				mirror.drain(a)
				if err := mirror.equal(b); err != nil {
					t.Fatalf("seed %d step %d: journal mirror: %v", seed, step, err)
				}
			}
		}
	}
}
