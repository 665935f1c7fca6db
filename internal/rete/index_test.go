package rete

import (
	"fmt"
	"testing"

	"pdps/internal/match"
	"pdps/internal/obs"
	"pdps/internal/wm"
)

// chainRule joins depth classes on a shared key attribute:
// (c0 ^k x) (c1 ^k x) ... — every non-first join carries one equality
// test and is indexable.
func chainRule(name string, depth int) *match.Rule {
	r := &match.Rule{Name: name, Actions: []match.Action{{Kind: match.ActHalt}}}
	for i := 0; i < depth; i++ {
		r.Conditions = append(r.Conditions, match.Condition{
			Class: fmt.Sprintf("c%d", i),
			Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}},
		})
	}
	return r
}

// TestIndexedJoinChain cross-checks a three-deep equality chain between
// the indexed network and the naive reference matcher under
// insert/remove churn, including cross-kind numeric keys (Int vs
// Float).
func TestIndexedJoinChain(t *testing.T) {
	idx, ref := New(), match.NewNaive()
	if err := idx.AddRule(chainRule("chain", 3)); err != nil {
		t.Fatal(err)
	}
	if err := ref.AddRule(chainRule("chain", 3)); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	var ws []*wm.WME
	for i := 0; i < 12; i++ {
		var k wm.Value
		if i%2 == 0 {
			k = wm.Int(int64(i % 4))
		} else {
			k = wm.Float(float64(i % 4)) // numerically equal to the Int key
		}
		w := s.Insert(fmt.Sprintf("c%d", i%3), map[string]wm.Value{"k": k})
		ws = append(ws, w)
		idx.Insert(w)
		ref.Insert(w)
		if a, b := idx.ConflictSet().Len(), ref.ConflictSet().Len(); a != b {
			t.Fatalf("insert %d: indexed=%d naive=%d", i, a, b)
		}
	}
	if idx.ConflictSet().Len() == 0 {
		t.Fatal("workload produced no joins")
	}
	for i, w := range ws {
		idx.Remove(w)
		ref.Remove(w)
		if a, b := idx.ConflictSet().Len(), ref.ConflictSet().Len(); a != b {
			t.Fatalf("remove %d: indexed=%d naive=%d", i, a, b)
		}
	}
	if n := idx.ConflictSet().Len(); n != 0 {
		t.Fatalf("%d instantiations after removing all WMEs", n)
	}
	assertIndexesEmpty(t, idx)
}

// TestIndexedNegationChurn drives an indexed negative node through the
// block/unblock cycle and checks the index bookkeeping drains to empty.
func TestIndexedNegationChurn(t *testing.T) {
	n := New()
	r := &match.Rule{
		Name: "guarded",
		Conditions: []match.Condition{
			{Class: "job", Tests: []match.AttrTest{{Attr: "lane", Op: match.OpEq, Var: "l"}}},
			{Class: "hold", Negated: true, Tests: []match.AttrTest{{Attr: "lane", Op: match.OpEq, Var: "l"}}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	}
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	jobs := make([]*wm.WME, 4)
	for i := range jobs {
		jobs[i] = s.Insert("job", map[string]wm.Value{"lane": wm.Int(int64(i % 2))})
		n.Insert(jobs[i])
	}
	if got := n.ConflictSet().Len(); got != 4 {
		t.Fatalf("unblocked: %d insts, want 4", got)
	}
	hold := s.Insert("hold", map[string]wm.Value{"lane": wm.Int(0)})
	n.Insert(hold)
	if got := n.ConflictSet().Len(); got != 2 {
		t.Fatalf("lane 0 held: %d insts, want 2", got)
	}
	n.Remove(hold)
	if got := n.ConflictSet().Len(); got != 4 {
		t.Fatalf("released: %d insts, want 4", got)
	}
	for _, w := range jobs {
		n.Remove(w)
	}
	if got := n.ConflictSet().Len(); got != 0 {
		t.Fatalf("drained: %d insts, want 0", got)
	}
	assertIndexesEmpty(t, n)
}

// assertIndexesEmpty walks every join and negative node and fails if a
// hash bucket still holds an entry after working memory was drained —
// a leak in the unindexing paths. It also sweeps the alpha
// registries and discrimination network (assertAlphaConsistent), so
// every drain-style test covers alpha GC for free.
func assertIndexesEmpty(t *testing.T, n *Network) {
	t.Helper()
	assertAlphaConsistent(t, n)
	for key, am := range n.alphaByKey {
		for _, s := range am.successors {
			switch node := s.(type) {
			case *joinNode:
				if len(node.left) != 0 || len(node.right) != 0 {
					t.Errorf("join on %s leaks: left=%d right=%d buckets", key, len(node.left), len(node.right))
				}
			case *negNode:
				if len(node.left) != 0 || len(node.right) != 0 {
					t.Errorf("neg on %s leaks: left=%d right=%d buckets", key, len(node.left), len(node.right))
				}
			}
		}
	}
}

// TestIndexMetrics checks the probe/scan counters: an equality chain
// answers activations from the index, and a rule with no equality test
// falls back to scans.
func TestIndexMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	n := New()
	n.SetMetrics(reg)
	if err := n.AddRule(chainRule("chain", 2)); err != nil {
		t.Fatal(err)
	}
	lt := &match.Rule{
		Name: "lt",
		Conditions: []match.Condition{
			{Class: "c0", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			{Class: "c1", Tests: []match.AttrTest{{Attr: "k", Op: match.OpLt, Var: "x"}}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	}
	if err := n.AddRule(lt); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	for i := 0; i < 6; i++ {
		n.Insert(s.Insert(fmt.Sprintf("c%d", i%2), map[string]wm.Value{"k": wm.Int(int64(i % 3))}))
	}
	if probes := reg.Counter("rete_index_probes_total").Value(); probes == 0 {
		t.Error("equality joins recorded no index probes")
	}
	if scans := reg.Counter("rete_index_scans_total").Value(); scans == 0 {
		t.Error("the no-equality join recorded no scans")
	}
}
