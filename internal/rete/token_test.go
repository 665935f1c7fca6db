package rete

import (
	"fmt"
	"math/rand"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// selfJoinRules match one `a` tuple at two levels: `pair` joins a with
// itself on x, `unguarded` adds a negated b on the same x, and
// `lonely` negates an a whose y equals the bound x — an a with x = y
// blocks its own token.
func selfJoinRules() []*match.Rule {
	ax := match.AttrTest{Attr: "x", Op: match.OpEq, Var: "v"}
	halt := []match.Action{{Kind: match.ActHalt}}
	return []*match.Rule{
		{Name: "pair", Actions: halt, Conditions: []match.Condition{
			{Class: "a", Tests: []match.AttrTest{ax}},
			{Class: "a", Tests: []match.AttrTest{ax}},
		}},
		{Name: "unguarded", Actions: halt, Conditions: []match.Condition{
			{Class: "a", Tests: []match.AttrTest{ax}},
			{Class: "a", Tests: []match.AttrTest{ax}},
			{Class: "b", Negated: true, Tests: []match.AttrTest{ax}},
		}},
		{Name: "lonely", Actions: halt, Conditions: []match.Condition{
			{Class: "a", Tests: []match.AttrTest{ax}},
			{Class: "a", Negated: true, Tests: []match.AttrTest{{Attr: "y", Op: match.OpEq, Var: "v"}}},
		}},
	}
}

// TestSelfJoinRemoval removes tuples that a rule matches at two
// levels. Inserting such a tuple puts a level-one token on its token
// list and then a production token that descends from it; removing the
// tuple deletes the first, which deletes the second, so the second
// must leave the list before Remove reaches it. A token deleted twice
// would return to the slab twice and later be handed out to two
// owners. Every step is checked against the naive matcher, and a full
// retraction must return the slabs to the root and the WME-free
// negative tokens.
func TestSelfJoinRemoval(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, naive := New(), match.NewNaive()
		for _, r := range selfJoinRules() {
			if err := n.AddRule(r); err != nil {
				t.Fatal(err)
			}
			if err := naive.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
		s := wm.NewStore()
		var live []*wm.WME
		for step := 0; step < 60; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				cls := "a"
				if rng.Intn(4) == 0 {
					cls = "b"
				}
				w := s.Insert(cls, map[string]wm.Value{"x": wm.Int(int64(rng.Intn(3))), "y": wm.Int(int64(rng.Intn(3)))})
				live = append(live, w)
				n.Insert(w)
				naive.Insert(w)
			} else {
				i := rng.Intn(len(live))
				w := live[i]
				live = append(live[:i], live[i+1:]...)
				n.Remove(w)
				naive.Remove(w)
			}
			sameConflictSets(t, seed, n.ConflictSet(), naive.ConflictSet())
		}
		for _, w := range live {
			n.Remove(w)
			naive.Remove(w)
			sameConflictSets(t, seed, n.ConflictSet(), naive.ConflictSet())
		}
		assertDrained(t, n)
	}
}

// TestReteChurnAllocs is the steady-state allocation ceiling of the
// token path: a JoinHeavy-shaped network (a task joined with four
// reference classes on one key, 64 keys resident) inserts and removes
// one key's task tuple. The insert builds five tokens, probes four
// buckets and emits one instantiation; the remove deletes them. Only
// the instantiation allocates: the Instantiation, its WMEs slice, its
// one-variable bindings map (two: the map and its first slot group)
// and its key — 5 allocations. Tokens, child and item links, the
// chain, buckets and per-WME lists cost nothing once the slab and the
// indexes have grown.
func TestReteChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	const keys, depth = 64, 4
	r := &match.Rule{Name: "finish", Actions: []match.Action{{Kind: match.ActHalt}}}
	r.Conditions = append(r.Conditions, match.Condition{Class: "task", Tests: []match.AttrTest{
		{Attr: "k", Op: match.OpEq, Var: "x"},
		{Attr: "done", Op: match.OpEq, Const: wm.Bool(false)},
	}})
	for l := 0; l < depth; l++ {
		r.Conditions = append(r.Conditions, match.Condition{
			Class: fmt.Sprintf("ref%d", l),
			Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}},
		})
	}
	n := New()
	if err := n.AddRule(r); err != nil {
		t.Fatal(err)
	}
	s := wm.NewStore()
	var task *wm.WME
	for k := 0; k < keys; k++ {
		w := s.Insert("task", map[string]wm.Value{"k": wm.Int(int64(k)), "done": wm.Bool(false)})
		n.Insert(w)
		if k == keys/2 {
			task = w
		}
		for l := 0; l < depth; l++ {
			n.Insert(s.Insert(fmt.Sprintf("ref%d", l), map[string]wm.Value{"k": wm.Int(int64(k))}))
		}
	}
	n.Remove(task)
	allocs := testing.AllocsPerRun(200, func() {
		n.Insert(task)
		n.Remove(task)
	})
	if got := n.ConflictSet().Len(); got != keys-1 {
		t.Fatalf("conflict set holds %d instantiations, want %d", got, keys-1)
	}
	if allocs != 5 {
		t.Fatalf("insert+remove of a task allocates %.0f times, want 5 (the instantiation, its WMEs, bindings map and group, and key)", allocs)
	}
}
