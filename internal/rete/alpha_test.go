package rete

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// assertAlphaConsistent checks the discrimination network's structural
// invariants against the alpha-memory registry:
//
//   - every registered memory has a successor (it was built for one)
//     and sits at exactly one terminal node of its class's tree, and
//     the trees carry no memory the registry lacks;
//   - every node's ref count equals the number of memories at or below
//     it — the patterns whose path runs through it — derived here by
//     walking the tree;
//   - the trees hold no empty levels, buckets or attribute roots;
//   - each level's eqAttrs is sorted and mirrors its eqRoots keys, so
//     routing stays deterministic.
func assertAlphaConsistent(t *testing.T, n *Network) {
	t.Helper()
	for key, am := range n.alphaByKey {
		if len(am.successors) == 0 {
			t.Errorf("alpha %s has no successors", key)
		}
	}
	placed := map[*alphaMem]int{}
	// walk returns the number of memories at or below node.
	var walk func(where, class string, node *alphaNode) int
	walkLevel := func(where, class string, lv *discLevel) int {
		if lv == nil {
			return 0
		}
		if len(lv.eqRoots) == 0 && len(lv.rest) == 0 {
			t.Errorf("%s: empty level", where)
		}
		if !sort.StringsAreSorted(lv.eqAttrs) {
			t.Errorf("%s: eqAttrs not sorted: %v", where, lv.eqAttrs)
		}
		if len(lv.eqAttrs) != len(lv.eqRoots) {
			t.Errorf("%s: eqAttrs has %d entries, eqRoots %d", where, len(lv.eqAttrs), len(lv.eqRoots))
		}
		below := 0
		for _, attr := range lv.eqAttrs {
			er := lv.eqRoots[attr]
			if er == nil {
				t.Errorf("%s: eqAttrs lists %s but eqRoots lacks it", where, attr)
				continue
			}
			if len(er.buckets) == 0 {
				t.Errorf("%s/%s: empty attribute root", where, attr)
			}
			for key, b := range er.buckets {
				below += walk(fmt.Sprintf("%s/%s[%q]", where, attr, key), class, b)
			}
		}
		for i, c := range lv.rest {
			below += walk(fmt.Sprintf("%s/rest[%d]", where, i), class, c)
		}
		return below
	}
	walk = func(where, class string, node *alphaNode) int {
		below := walkLevel(where, class, node.kids)
		if am := node.mem; am != nil {
			below++
			placed[am]++
			if n.alphaByKey[am.key] != am {
				t.Errorf("%s: carries unregistered alpha %s", where, am.key)
			}
			if am.class != class {
				t.Errorf("%s: carries alpha %s of class %s", where, am.key, am.class)
			}
		}
		if below == 0 {
			t.Errorf("%s: no pattern ends at or below the node", where)
		}
		if node.refs != below {
			t.Errorf("%s: refs=%d, %d patterns at or below it", where, node.refs, below)
		}
		return below
	}
	for class, d := range n.disc {
		walk("class "+class, class, d.root)
	}
	for key, am := range n.alphaByKey {
		if placed[am] != 1 {
			t.Errorf("alpha %s sits at %d terminal nodes, want 1", key, placed[am])
		}
	}
}

// TestAlphaDiscSharing checks the cross-rule factoring the tree is
// for: the fanout rule set's overlapping constant tests collapse onto
// shared hash buckets, and the structure stays consistent through
// assert/retract churn.
func TestAlphaDiscSharing(t *testing.T) {
	n := New()
	for _, r := range fanoutRules(48) {
		if err := n.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	assertAlphaConsistent(t, n)
	top := n.Topology()
	if top.AlphaMems != 48 {
		t.Fatalf("AlphaMems=%d, want 48 distinct patterns", top.AlphaMems)
	}
	if top.SharedAlphaNodes == 0 {
		t.Fatal("no shared discrimination nodes despite 48 overlapping rules")
	}
	if top.AlphaRoutedAttrs == 0 {
		t.Fatal("no hash-routed attributes for all-equality patterns")
	}
	// 48 rules × 3 tests each collapse far below 144 nodes.
	if top.AlphaDiscNodes >= 144 {
		t.Fatalf("AlphaDiscNodes=%d, want structural sharing below 144", top.AlphaDiscNodes)
	}
	s := wm.NewStore()
	var ws []*wm.WME
	for i := 0; i < 64; i++ {
		r := i % 48
		w := s.Insert("event", map[string]wm.Value{
			"cat": wm.Int(int64(r % 16)), "pri": wm.Int(int64(r / 16)), "live": wm.Bool(i%2 == 0)})
		ws = append(ws, w)
		n.Insert(w)
	}
	if n.ConflictSet().Len() == 0 {
		t.Fatal("no events matched")
	}
	for _, w := range ws {
		n.Remove(w)
	}
	if got := n.ConflictSet().Len(); got != 0 {
		t.Fatalf("drained: %d instantiations", got)
	}
	assertDrained(t, n)
}

// TestRuleChurnOracle drives WME churn through random programs whose
// rules are fixed before the first insert, against the naive matcher.
// About half of each program's rules are renamed copies of earlier ones, so
// alpha memories and beta prefixes are shared; the change journal is
// mirrored as the engine's agenda follows it, the alpha structures are
// swept after every step, and a full retraction must drain every index
// and registry.
func TestRuleChurnOracle(t *testing.T) {
	for _, ctor := range constructors {
		t.Run(ctor.name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := ctor.build().(*Network)
				naive := match.NewNaive()
				var rules []*match.Rule
				for i := 0; i < 4+rng.Intn(6); i++ {
					r := randomRule(rng, fmt.Sprintf("r%d", i))
					if i > 0 && rng.Intn(2) == 0 {
						twin := *rules[rng.Intn(len(rules))]
						twin.Name = r.Name
						r = &twin
					}
					rules = append(rules, r)
					if err := n.AddRule(r); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if err := naive.AddRule(r); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				assertAlphaConsistent(t, n)
				n.TrackChanges(true)
				mirror := journalMirror{}
				s := wm.NewStore()
				var wmes []*wm.WME
				for step := 0; step < 80; step++ {
					if len(wmes) == 0 || rng.Intn(5) < 3 {
						w := randomWME(rng, s)
						wmes = append(wmes, w)
						n.Insert(w)
						naive.Insert(w)
					} else {
						i := rng.Intn(len(wmes))
						w := wmes[i]
						wmes = append(wmes[:i], wmes[i+1:]...)
						n.Remove(w)
						naive.Remove(w)
					}
					sameConflictSets(t, seed, n.ConflictSet(), naive.ConflictSet())
					mirror.drain(n.ConflictSet())
					if err := mirror.equal(naive.ConflictSet()); err != nil {
						t.Fatalf("seed %d step %d: journal mirror: %v", seed, step, err)
					}
					assertAlphaConsistent(t, n)
				}
				for _, w := range wmes {
					n.Remove(w)
				}
				assertDrained(t, n)
			}
		})
	}
}

// TestAlphaScanOrder: a join with no equality test scans its alpha
// memory oldest first, so the instantiations one insert makes reach
// the conflict-set journal in program order. The rule
// (a ^k <x>) (b ^k > <x>) joins one a with eight b tuples by a scan;
// twenty runs must journal them in one order.
func TestAlphaScanOrder(t *testing.T) {
	r := &match.Rule{Name: "above", Conditions: []match.Condition{
		{Class: "a", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
		{Class: "b", Tests: []match.AttrTest{{Attr: "k", Op: match.OpGt, Var: "x"}}},
	}, Actions: []match.Action{{Kind: match.ActHalt}}}
	orders := make(map[string]bool)
	for run := 0; run < 20; run++ {
		n := New()
		if err := n.AddRule(r); err != nil {
			t.Fatal(err)
		}
		n.TrackChanges(true)
		s := wm.NewStore()
		for k := 1; k <= 8; k++ {
			n.Insert(s.Insert("b", map[string]wm.Value{"k": wm.Int(int64(k))}))
		}
		n.Insert(s.Insert("a", map[string]wm.Value{"k": wm.Int(0)}))
		added, _ := n.ConflictSet().TakeChanges()
		if len(added) != 8 {
			t.Fatalf("run %d: %d instantiations journaled, want 8", run, len(added))
		}
		order := ""
		for i, in := range added {
			if i > 0 && in.WMEs[1].ID < added[i-1].WMEs[1].ID {
				t.Fatalf("run %d: b tuples journaled newest first: %v", run, added)
			}
			order += in.Key() + " "
		}
		orders[order] = true
	}
	if len(orders) != 1 {
		t.Fatalf("20 runs journaled %d orders, want 1", len(orders))
	}
}
