package rete

import (
	"fmt"
	"math/rand"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// randomRule builds a random rule over classes c0..c3 with attributes
// a0..a2, joining consecutive CEs on a shared variable half the time
// and negating a non-first CE occasionally.
func randomRule(rng *rand.Rand, name string) *match.Rule {
	numCE := 1 + rng.Intn(3)
	var conds []match.Condition
	bound := false
	for i := 0; i < numCE; i++ {
		c := match.Condition{Class: fmt.Sprintf("c%d", rng.Intn(4))}
		// Constant test.
		if rng.Intn(2) == 0 {
			ops := []match.Op{match.OpEq, match.OpNe, match.OpLt, match.OpGt, match.OpLe, match.OpGe}
			c.Tests = append(c.Tests, match.AttrTest{
				Attr:  fmt.Sprintf("a%d", rng.Intn(3)),
				Op:    ops[rng.Intn(len(ops))],
				Const: wm.Int(int64(rng.Intn(4))),
			})
		}
		// Variable binding / join test.
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
		// Maybe negate non-binding CEs past the first.
		if i > 0 && rng.Intn(4) == 0 {
			// A negated CE must not be the binding occurrence of x.
			neg := true
			for _, t := range c.Tests {
				if t.IsVar() && !bound {
					neg = false
				}
			}
			if neg {
				c.Negated = true
			}
		}
		conds = append(conds, c)
	}
	// Guarantee at least one positive CE.
	allNeg := true
	for _, c := range conds {
		if !c.Negated {
			allNeg = false
			break
		}
	}
	if allNeg {
		conds[0].Negated = false
	}
	r := &match.Rule{
		Name:       name,
		Conditions: conds,
		Actions:    []match.Action{{Kind: match.ActHalt}},
	}
	// Rebuild into a valid rule: if validation fails (e.g. variable
	// used before binding because the binding CE was negated), retry
	// deterministically by dropping var tests.
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

func randomWME(rng *rand.Rand, s *wm.Store) *wm.WME {
	a := map[string]wm.Value{}
	for i := 0; i < 3; i++ {
		if rng.Intn(3) > 0 {
			v := int64(rng.Intn(4))
			// Mix kinds: ints and numerically-equal floats must collide
			// in the hash indexes exactly as Value.Equal says they do.
			if rng.Intn(4) == 0 {
				a[fmt.Sprintf("a%d", i)] = wm.Float(float64(v))
			} else {
				a[fmt.Sprintf("a%d", i)] = wm.Int(v)
			}
		}
	}
	return s.Insert(fmt.Sprintf("c%d", rng.Intn(4)), a)
}

func sameConflictSets(t *testing.T, seed int64, a, b *match.ConflictSet) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("seed %d: conflict sets differ in size: rete=%d naive=%d\nrete: %v\nnaive: %v",
			seed, a.Len(), b.Len(), a.All(), b.All())
	}
	for _, in := range a.All() {
		if !b.Contains(in.Key()) {
			t.Fatalf("seed %d: rete has %v, naive does not", seed, in)
		}
	}
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

// constructors are the network variants every oracle test must agree
// on: the hashed planned network. The naive matcher joins in source
// order, so agreement also proves planned instantiation keys equal
// source-order ones.
var constructors = []struct {
	name  string
	build func() match.Matcher
}{
	{"planned", func() match.Matcher { return New() }},
}

// TestReteMatchesNaiveOracle drives each Rete variant and the naive
// matcher with identical random rule sets and random insert/remove
// streams and requires identical conflict sets after every step. It
// also replays the network's change journal into a mirror, as the
// engine's agenda does, and requires the mirror to equal the naive
// set too; even seeds switch tracking on before the first insert, odd
// ones part-way through, when the set is populated.
func TestReteMatchesNaiveOracle(t *testing.T) {
	for _, ctor := range constructors {
		t.Run(ctor.name, func(t *testing.T) { reteOracle(t, ctor.build) })
	}
}

func reteOracle(t *testing.T, build func() match.Matcher) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := wm.NewStore()
		rete := build()
		naive := match.NewNaive()
		for i := 0; i < 1+rng.Intn(4); i++ {
			r := randomRule(rng, fmt.Sprintf("r%d", i))
			if err := rete.AddRule(r); err != nil {
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
				rete.TrackChanges(true)
				mirror = journalMirror{}
			}
			if len(live) == 0 || rng.Intn(3) > 0 {
				w := randomWME(rng, s)
				live = append(live, w)
				rete.Insert(w)
				naive.Insert(w)
			} else {
				i := rng.Intn(len(live))
				w := live[i]
				live = append(live[:i], live[i+1:]...)
				rete.Remove(w)
				naive.Remove(w)
			}
			sameConflictSets(t, seed, rete.ConflictSet(), naive.ConflictSet())
			if mirror != nil {
				mirror.drain(rete.ConflictSet())
				if err := mirror.equal(naive.ConflictSet()); err != nil {
					t.Fatalf("seed %d step %d: journal mirror: %v", seed, step, err)
				}
			}
		}
	}
}
