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
// invariants against the alpha-memory registries:
//
//   - no registered memory is successor-less (maybeGCAlpha missed it);
//   - every memory holds a discrimination path whose terminal node
//     carries it, every node's ref count equals the number of
//     registered paths through it, and the trees contain no nodes
//     beyond those paths (no GC leaks), no empty buckets or attribute
//     roots, and no unpruned empty levels;
//   - each level's eqAttrs is sorted and mirrors its eqRoots keys, so
//     routing stays deterministic.
func assertAlphaConsistent(t *testing.T, n *Network) {
	t.Helper()
	for key, am := range n.alphaByKey {
		if len(am.successors) == 0 {
			t.Errorf("alpha %s has no successors; maybeGCAlpha should have collected it", key)
		}
	}

	// Recompute every node's expected ref count from the registered
	// paths, then demand the trees agree exactly.
	nodeRefs := map[*alphaNode]int{}
	rootRefs := map[string]int{}
	erRefs := map[*eqRoot]int{}
	for key, am := range n.alphaByKey {
		if am.disc == nil {
			t.Errorf("alpha %s has no discrimination path", key)
			continue
		}
		if am.disc.class != am.class {
			t.Errorf("alpha %s path class %s != %s", key, am.disc.class, am.class)
		}
		steps := am.disc.steps
		if term := steps[len(steps)-1].node; term.mem != am {
			t.Errorf("alpha %s terminal node does not carry it", key)
		}
		rootRefs[am.class]++
		for i, st := range steps {
			if i == 0 {
				if d := n.disc[am.class]; d == nil || d.root != st.node {
					t.Errorf("alpha %s path does not start at its class root", key)
				}
				continue
			}
			nodeRefs[st.node]++
			if st.attr != "" {
				er := st.level.eqRoots[st.attr]
				if er == nil || er.buckets[st.bucket] != st.node {
					t.Errorf("alpha %s step %d not reachable via %s bucket", key, i, st.attr)
					continue
				}
				erRefs[er]++
			} else {
				found := false
				for _, c := range st.level.rest {
					if c == st.node {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("alpha %s step %d not in its level's residual list", key, i)
				}
			}
		}
	}

	seen := 0
	for class, d := range n.disc {
		if d.root.refs != rootRefs[class] {
			t.Errorf("class %s root refs=%d, %d patterns registered", class, d.root.refs, rootRefs[class])
		}
		if rootRefs[class] == 0 {
			t.Errorf("class %s tree has no registered patterns; should have been deleted", class)
		}
		var walkLevels func(where string, lv *discLevel)
		walkLevels = func(where string, lv *discLevel) {
			if lv == nil {
				return
			}
			if len(lv.eqRoots) == 0 && len(lv.rest) == 0 {
				t.Errorf("%s: empty level not pruned", where)
			}
			if !sort.StringsAreSorted(lv.eqAttrs) {
				t.Errorf("%s: eqAttrs not sorted: %v", where, lv.eqAttrs)
			}
			if len(lv.eqAttrs) != len(lv.eqRoots) {
				t.Errorf("%s: eqAttrs has %d entries, eqRoots %d", where, len(lv.eqAttrs), len(lv.eqRoots))
			}
			for _, attr := range lv.eqAttrs {
				er := lv.eqRoots[attr]
				if er == nil {
					t.Errorf("%s: eqAttrs lists %s but eqRoots lacks it", where, attr)
					continue
				}
				if er.refs != erRefs[er] {
					t.Errorf("%s/%s: eqRoot refs=%d, %d paths route through it", where, attr, er.refs, erRefs[er])
				}
				if len(er.buckets) == 0 {
					t.Errorf("%s/%s: empty attribute root not pruned", where, attr)
				}
				for key, b := range er.buckets {
					seen++
					if b.refs != nodeRefs[b] {
						t.Errorf("%s/%s[%q]: refs=%d, %d paths through it", where, attr, key, b.refs, nodeRefs[b])
					}
					walkLevels(fmt.Sprintf("%s/%s[%q]", where, attr, key), b.kids)
				}
			}
			for i, c := range lv.rest {
				seen++
				if c.refs != nodeRefs[c] {
					t.Errorf("%s/rest[%d]: refs=%d, %d paths through it", where, i, c.refs, nodeRefs[c])
				}
				walkLevels(fmt.Sprintf("%s/rest[%d]", where, i), c.kids)
			}
		}
		walkLevels("class "+class, d.root.kids)
	}
	if seen != len(nodeRefs) {
		t.Errorf("trees hold %d nodes, registered paths cover %d — orphaned nodes leak", seen, len(nodeRefs))
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

// TestRemoveRuleAlphaGC removes rules one batch at a time and checks
// the alpha structures shrink with them: memories leave the
// registries, their discrimination paths are ref-counted away, and an
// emptied class tree disappears. Re-adding a rule against a populated
// working memory must then rebuild and back-fill its pattern.
func TestRemoveRuleAlphaGC(t *testing.T) {
	n := New()
	rules := fanoutRules(48)
	for _, r := range rules {
		if err := n.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	nodesAll := n.Topology().AlphaDiscNodes

	if err := n.RemoveRule("no-such-rule"); err == nil {
		t.Fatal("RemoveRule of unknown rule did not fail")
	}
	for _, r := range rules[24:] {
		if err := n.RemoveRule(r.Name); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Stats().AlphaMems; got != 24 {
		t.Fatalf("AlphaMems=%d after removing half the rules, want 24", got)
	}
	if got := n.Topology().AlphaDiscNodes; got >= nodesAll {
		t.Fatalf("AlphaDiscNodes=%d did not shrink from %d", got, nodesAll)
	}
	assertAlphaConsistent(t, n)

	// The survivors must still match, and removed rules must not.
	s := wm.NewStore()
	hot := func(r int) *wm.WME {
		return s.Insert("event", map[string]wm.Value{
			"cat": wm.Int(int64(r % 16)), "pri": wm.Int(int64(r / 16)), "live": wm.Bool(true)})
	}
	w5, w40 := hot(5), hot(40)
	n.Insert(w5)
	n.Insert(w40)
	if got := n.ConflictSet().Len(); got != 1 {
		t.Fatalf("got %d instantiations, want 1 (rule fan40 was removed)", got)
	}

	// Re-add a removed rule against the populated store: the rebuilt
	// alpha memory must back-fill and match the resident WME.
	if err := n.AddRule(rules[40]); err != nil {
		t.Fatal(err)
	}
	if got := n.ConflictSet().Len(); got != 2 {
		t.Fatalf("after re-add: %d instantiations, want 2", got)
	}
	assertAlphaConsistent(t, n)

	n.Remove(w5)
	n.Remove(w40)
	for _, r := range rules[:24] {
		if err := n.RemoveRule(r.Name); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.RemoveRule(rules[40].Name); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().AlphaMems; got != 0 {
		t.Fatalf("AlphaMems=%d after removing every rule, want 0", got)
	}
	if len(n.disc) != 0 {
		t.Fatalf("%d class trees survive an empty rule set", len(n.disc))
	}
	assertDrained(t, n)

	// Churn under beta sharing with a trailing negation: rules are
	// removed and recompiled against live memories while WMEs come and
	// go. Two 4-CE rules never need more than 8 alpha patterns, so more
	// is a stranded memory; a full retraction must then drain every
	// index, registry and memory.
	n = New()
	mk := func(name, lastClass string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: "c0", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "c1", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: lastClass, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "gate", Negated: true, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActHalt}},
		}
	}
	churn := []*match.Rule{mk("r1", "c2"), mk("r2", "c3")}
	for _, r := range churn {
		if err := n.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	s = wm.NewStore()
	var ws []*wm.WME
	classes := []string{"c0", "c1", "c2", "c3", "gate"}
	for round := 0; round < 6; round++ {
		for i, cls := range classes {
			copies := 1 + (round+i)%3
			for c := 0; c < copies; c++ {
				w := s.Insert(cls, map[string]wm.Value{"k": wm.Int(int64(c % 2))})
				ws = append(ws, w)
				n.Insert(w)
			}
		}
		r := churn[round%2]
		if err := n.RemoveRule(r.Name); err != nil {
			t.Fatal(err)
		}
		assertAlphaConsistent(t, n)
		if err := n.AddRule(r); err != nil {
			t.Fatal(err)
		}
		assertAlphaConsistent(t, n)
		cut := len(ws) / 3
		for _, w := range ws[:cut] {
			n.Remove(w)
		}
		ws = append([]*wm.WME(nil), ws[cut:]...)
		assertAlphaConsistent(t, n)
	}
	if got := n.Stats().AlphaMems; got > 8 {
		t.Fatalf("AlphaMems=%d after rule churn, want <= 8 (alpha GC leak)", got)
	}
	for _, w := range ws {
		n.Remove(w)
	}
	if got := n.ConflictSet().Len(); got != 0 {
		t.Fatalf("drained: %d insts, want 0", got)
	}
	assertDrained(t, n)
}

// TestRemoveRuleUnderBetaSharing pins the sharing boundary: two rules
// share both a beta prefix and the alpha memories under it, so
// removing one must keep every shared alpha memory alive for the
// survivor and collect only the removed rule's private pattern.
func TestRemoveRuleUnderBetaSharing(t *testing.T) {
	mk := func(name, lastClass string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: "c0", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "c1", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: lastClass, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActHalt}},
		}
	}
	n := New()
	if err := n.AddRule(mk("r1", "c2")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRule(mk("r2", "c3")); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	var ws []*wm.WME
	for _, cls := range []string{"c0", "c1", "c2", "c3"} {
		w := s.Insert(cls, map[string]wm.Value{"k": wm.Int(1)})
		ws = append(ws, w)
		n.Insert(w)
	}
	if got := n.ConflictSet().Len(); got != 2 {
		t.Fatalf("got %d instantiations, want 2", got)
	}

	if err := n.RemoveRule("r1"); err != nil {
		t.Fatal(err)
	}
	// c0, c1 stay (r2 uses them); c2's memory must be collected.
	if got := n.Stats().AlphaMems; got != 3 {
		t.Fatalf("AlphaMems=%d after removing r1, want 3", got)
	}
	for key := range n.alphaByKey {
		if n.alphaByKey[key].class == "c2" {
			t.Fatalf("alpha %s survives though only r1 used it", key)
		}
	}
	assertAlphaConsistent(t, n)
	if got := n.ConflictSet().Len(); got != 1 {
		t.Fatalf("got %d instantiations after removing r1, want 1", got)
	}
	// The collected pattern must not resurrect on later asserts.
	w := s.Insert("c2", map[string]wm.Value{"k": wm.Int(1)})
	n.Insert(w)
	if got := n.ConflictSet().Len(); got != 1 {
		t.Fatalf("removed rule's pattern still matches: %d instantiations", got)
	}
	n.Remove(w)

	if err := n.RemoveRule("r2"); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().AlphaMems; got != 0 {
		t.Fatalf("AlphaMems=%d after removing both rules, want 0", got)
	}
	for _, w := range ws {
		n.Remove(w)
	}
	assertDrained(t, n)
}

// TestRuleChurnOracle drives random add-rule / remove-rule / WME churn
// against a naive matcher rebuilt from the live rule set at every
// step: alpha GC and back-fill under sharing must never change what
// matches.
func TestRuleChurnOracle(t *testing.T) {
	variants := []struct {
		name  string
		build func() *Network
	}{
		{"planned", New},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := wm.NewStore()
				n := v.build()
				live := map[string]*match.Rule{}
				var wmes []*wm.WME
				next := 0
				for step := 0; step < 80; step++ {
					switch op := rng.Intn(6); {
					case op == 0 || len(live) == 0:
						r := randomRule(rng, fmt.Sprintf("r%d", next))
						next++
						live[r.Name] = r
						if err := n.AddRule(r); err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
					case op == 1 && len(live) > 1:
						names := make([]string, 0, len(live))
						for name := range live {
							names = append(names, name)
						}
						sort.Strings(names)
						name := names[rng.Intn(len(names))]
						delete(live, name)
						if err := n.RemoveRule(name); err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
					case op >= 2 && op <= 4 || len(wmes) == 0:
						w := randomWME(rng, s)
						wmes = append(wmes, w)
						n.Insert(w)
					default:
						i := rng.Intn(len(wmes))
						w := wmes[i]
						wmes = append(wmes[:i], wmes[i+1:]...)
						n.Remove(w)
					}
					naive := match.NewNaive()
					for _, name := range sortedKeys(live) {
						if err := naive.AddRule(live[name]); err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
					}
					for _, w := range wmes {
						naive.Insert(w)
					}
					sameConflictSets(t, seed, n.ConflictSet(), naive.ConflictSet())
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

func sortedKeys(m map[string]*match.Rule) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
