package rete

import (
	"fmt"
	"testing"

	"pdps/internal/match"
	"pdps/internal/treat"
	"pdps/internal/wm"
)

// benchRules builds nRules three-way join rules over shared classes,
// so alpha memories are shared and beta activity is non-trivial.
func benchRules(nRules int) []*match.Rule {
	rules := make([]*match.Rule, nRules)
	for i := range rules {
		rules[i] = &match.Rule{
			Name: fmt.Sprintf("r%d", i),
			Conditions: []match.Condition{
				{Class: "a", Tests: []match.AttrTest{
					{Attr: "k", Op: match.OpEq, Var: "x"},
					{Attr: "g", Op: match.OpEq, Const: wm.Int(int64(i % 4))},
				}},
				{Class: "b", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
				{Class: "c", Negated: true, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
		}
	}
	return rules
}

func benchChurn(b *testing.B, m match.Matcher) {
	b.Helper()
	for _, r := range benchRules(8) {
		if err := m.AddRule(r); err != nil {
			b.Fatal(err)
		}
	}
	s := wm.NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := s.Insert("a", map[string]wm.Value{"k": wm.Int(int64(i % 16)), "g": wm.Int(int64(i % 4))})
		bb := s.Insert("b", map[string]wm.Value{"k": wm.Int(int64(i % 16))})
		m.Insert(a)
		m.Insert(bb)
		if i%3 == 0 {
			c := s.Insert("c", map[string]wm.Value{"k": wm.Int(int64(i % 16))})
			m.Insert(c)
			m.Remove(c)
		}
		m.Remove(a)
		m.Remove(bb)
	}
}

// BenchmarkChurn measures insert/remove throughput through the full
// network for each matcher (conflict-set computation included for the
// naive matcher, which recomputes on demand).
func BenchmarkChurn(b *testing.B) {
	b.Run("rete", func(b *testing.B) { benchChurn(b, New()) })
	b.Run("treat", func(b *testing.B) { benchChurn(b, treat.New()) })
	b.Run("naive", func(b *testing.B) {
		m := match.NewNaive()
		for _, r := range benchRules(8) {
			if err := m.AddRule(r); err != nil {
				b.Fatal(err)
			}
		}
		s := wm.NewStore()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := s.Insert("a", map[string]wm.Value{"k": wm.Int(int64(i % 16)), "g": wm.Int(int64(i % 4))})
			m.Insert(a)
			m.ConflictSet() // naive pays at read time
			m.Remove(a)
		}
	})
}

// BenchmarkJoinDepth isolates the cost the hashed memories remove: a
// four-deep equality chain over resident reference classes of 256
// keys each. Every c0 insert activates the whole chain; the linear
// network scans each opposite memory in full (O(keys) per level)
// while the indexed network probes single-entry buckets. This is the
// E17 ≥2× acceptance benchmark (EXPERIMENTS.md).
func BenchmarkJoinDepth(b *testing.B) {
	const keys, depth = 256, 4
	for _, v := range []struct {
		name string
		mk   func() match.Matcher
	}{
		{"indexed", func() match.Matcher { return New() }},
		{"linear", func() match.Matcher { return NewLinear() }},
		{"treat", func() match.Matcher { return treat.New() }},
	} {
		b.Run(v.name, func(b *testing.B) {
			m := v.mk()
			if err := m.AddRule(chainRule("chain", depth)); err != nil {
				b.Fatal(err)
			}
			s := wm.NewStore()
			for k := 0; k < keys; k++ {
				for l := 1; l < depth; l++ {
					m.Insert(s.Insert(fmt.Sprintf("c%d", l), map[string]wm.Value{"k": wm.Int(int64(k))}))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := s.Insert("c0", map[string]wm.Value{"k": wm.Int(int64(i % keys))})
				m.Insert(w)
				if m.ConflictSet().Len() != 1 {
					b.Fatal("chain did not match")
				}
				m.Remove(w)
			}
		})
	}
}

// BenchmarkPlanMisordered is the cost planner's acceptance shape
// (E21): a rule whose source order lists two wide reference classes
// before the selective pattern and the task. Source-order compilation
// ("src") joins every insert through the wide cross first; the
// planned network ("planned") hoists the selective CE and answers
// cold keys from an empty bucket.
func BenchmarkPlanMisordered(b *testing.B) {
	const keys, width = 256, 8
	kv := func() []match.AttrTest {
		return []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}
	}
	rule := &match.Rule{
		Name: "finish",
		Conditions: []match.Condition{
			{Class: "wide0", Tests: kv()},
			{Class: "wide1", Tests: kv()},
			{Class: "sel", Tests: []match.AttrTest{
				{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)},
				{Attr: "k", Op: match.OpEq, Var: "x"},
			}},
			{Class: "task", Tests: []match.AttrTest{
				{Attr: "k", Op: match.OpEq, Var: "x"},
				{Attr: "done", Op: match.OpEq, Const: wm.Bool(false)},
			}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	}
	for _, v := range []struct {
		name string
		mk   func() *Network
	}{
		{"planned", New},
		{"src", NewSourceOrder},
	} {
		b.Run(v.name, func(b *testing.B) {
			n := v.mk()
			if err := n.AddRule(rule); err != nil {
				b.Fatal(err)
			}
			s := wm.NewStore()
			for k := 0; k < keys; k++ {
				n.Insert(s.Insert("task", map[string]wm.Value{"k": wm.Int(int64(k)), "done": wm.Bool(false)}))
				for c := 0; c < width; c++ {
					n.Insert(s.Insert("wide0", map[string]wm.Value{"k": wm.Int(int64(k)), "v": wm.Int(int64(c))}))
					n.Insert(s.Insert("wide1", map[string]wm.Value{"k": wm.Int(int64(k)), "v": wm.Int(int64(c))}))
				}
				if k%16 == 0 {
					n.Insert(s.Insert("sel", map[string]wm.Value{"k": wm.Int(int64(k)), "hot": wm.Bool(true)}))
				}
			}
			// Every hot key (one in 16) matches width×width times.
			base := n.ConflictSet().Len()
			if want := (keys + 15) / 16 * width * width; base != want {
				b.Fatalf("conflict set = %d, want %d", base, want)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := s.Insert("wide0", map[string]wm.Value{"k": wm.Int(int64(i%keys | 1)), "v": wm.Int(-1)})
				n.Insert(w)
				n.Remove(w)
			}
			b.StopTimer()
			if n.ConflictSet().Len() != base {
				b.Fatal("churn leaked instantiations")
			}
		})
	}
}

// BenchmarkAddRuleSeeding measures late rule addition against a
// populated working memory (the update-from-above path).
func BenchmarkAddRuleSeeding(b *testing.B) {
	s := wm.NewStore()
	var wmes []*wm.WME
	for i := 0; i < 500; i++ {
		wmes = append(wmes,
			s.Insert("a", map[string]wm.Value{"k": wm.Int(int64(i % 50)), "g": wm.Int(int64(i % 4))}),
			s.Insert("b", map[string]wm.Value{"k": wm.Int(int64(i % 50))}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New()
		for _, w := range wmes {
			n.Insert(w)
		}
		for _, r := range benchRules(4) {
			if err := n.AddRule(r); err != nil {
				b.Fatal(err)
			}
		}
		if n.ConflictSet().Len() == 0 {
			b.Fatal("no matches")
		}
	}
}

// fanoutRules is the ManyRulesFanout rule shape at matcher level:
// nRules single-CE rules over one event class with overlapping
// constant tests (a category shared by nRules/16 rules, a priority
// band, and a live flag shared by all). The linear alpha network
// evaluates every rule's predicate closure per assert; the
// discrimination network answers with one hash probe plus the shared
// residual tests.
func fanoutRules(nRules int) []*match.Rule {
	cats := 16
	if nRules < cats {
		cats = nRules
	}
	rules := make([]*match.Rule, nRules)
	for r := range rules {
		rules[r] = &match.Rule{
			Name: fmt.Sprintf("fan%d", r),
			Conditions: []match.Condition{{
				Class: "event",
				Tests: []match.AttrTest{
					{Attr: "cat", Op: match.OpEq, Const: wm.Int(int64(r % cats))},
					{Attr: "pri", Op: match.OpEq, Const: wm.Int(int64(r / cats))},
					{Attr: "live", Op: match.OpEq, Const: wm.Bool(true)},
				},
			}},
			Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
		}
	}
	return rules
}

// BenchmarkAlphaFanout measures the alpha assert path as rule count
// grows (E22): insert/remove churn of events through R single-CE
// rules, mostly cold events matching no rule (the common case — a
// linear alpha network still walks all R memories) with every fourth
// event hot (owned by exactly one rule). "disc" routes through the
// shared discrimination network; "linear" is the per-class list walk.
func BenchmarkAlphaFanout(b *testing.B) {
	for _, rules := range []int{16, 64, 256} {
		for _, v := range []struct {
			name string
			mk   func() *Network
		}{
			{"disc", New},
			{"linear", NewLinear},
		} {
			b.Run(fmt.Sprintf("%s/R%d", v.name, rules), func(b *testing.B) {
				m := v.mk()
				for _, r := range fanoutRules(rules) {
					if err := m.AddRule(r); err != nil {
						b.Fatal(err)
					}
				}
				// Pre-build the event pool so the loop times the assert
				// path, not WME construction.
				s := wm.NewStore()
				events := make([]*wm.WME, 64)
				for i := range events {
					if i%4 == 0 {
						r := i % rules
						events[i] = s.Insert("event", map[string]wm.Value{
							"cat": wm.Int(int64(r % 16)), "pri": wm.Int(int64(r / 16)), "live": wm.Bool(true)})
						continue
					}
					events[i] = s.Insert("event", map[string]wm.Value{
						"cat": wm.Int(int64(i % 16)), "pri": wm.Int(int64(rules)), "live": wm.Bool(true)})
				}
				m.Insert(events[0])
				if m.ConflictSet().Len() != 1 {
					b.Fatal("hot event did not match its rule")
				}
				m.Remove(events[0])
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w := events[i%len(events)]
					m.Insert(w)
					m.Remove(w)
				}
				b.StopTimer()
				if m.ConflictSet().Len() != 0 {
					b.Fatal("churn leaked instantiations")
				}
			})
		}
	}
}
