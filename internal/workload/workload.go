// Package workload provides the paper's worked-example fixtures and
// parameterised synthetic workload generators used by the tests,
// benchmarks and the bench/ firing ledger.
//
// Reconstruction note: the published scan of the paper is partially
// illegible exactly where the Section 3.3 add/delete sets and the
// Table 5.1/5.2 sets are printed. The fixtures below are documented
// reconstructions chosen to be consistent with every number that IS
// legible: the initial conflict set {P1,P2,P3,P5} of Section 3.3; and
// for Section 5 the execution times T=(5,3,2,4), Np=4, the commit
// sequences σ1=p3p2p4 and σ2=p3p2, and the reported values
// T_single/T_multi/speedup of 9/4/2.25 (Fig 5.1), 5/3/1.67 (Fig 5.2),
// 10/4/2.5 (Fig 5.3) and 9/6/1.5 (Fig 5.4).
package workload

import (
	"fmt"
	"math/rand"

	"pdps/internal/core"
	"pdps/internal/engine"
	"pdps/internal/match"
	"pdps/internal/wm"
)

// Fig32System returns the Section 3.3-style example: six abstract
// productions with add/delete sets and initial conflict set
// {P1,P2,P3,P5}, whose execution graph is the Figure 3.2 reproduction.
func Fig32System() *core.System {
	s, err := core.NewSystem([]*core.Production{
		{Name: "P1", Add: []string{"P4"}, Del: []string{"P2", "P3"}, Time: 3},
		{Name: "P2", Add: []string{"P4"}, Del: []string{"P1"}, Time: 2},
		{Name: "P3", Time: 2},
		{Name: "P4", Add: []string{"P6"}, Del: []string{"P5"}, Time: 4},
		{Name: "P5", Del: []string{"P4"}, Time: 1},
		{Name: "P6", Time: 2},
	}, []string{"P1", "P2", "P3", "P5"})
	if err != nil {
		panic("workload: fig32: " + err.Error())
	}
	return s
}

// Fig51System returns the Section 5 base case (Figure 5.1, Table 5.1):
// conflict set {P1,P2,P3,P4} with execution times 5, 3, 2, 4. The
// delete sets make σ1 = p3 p2 p4 the derived commit sequence on four
// processors, with P1 aborted by P2's commit: T_single=9, T_multi=4,
// speedup 2.25.
func Fig51System() *core.System {
	s, err := core.NewSystem([]*core.Production{
		{Name: "P1", Time: 5},
		{Name: "P2", Time: 3, Del: []string{"P1"}},
		{Name: "P3", Time: 2},
		{Name: "P4", Time: 4},
	}, []string{"P1", "P2", "P3", "P4"})
	if err != nil {
		panic("workload: fig51: " + err.Error())
	}
	return s
}

// Fig52System returns the changed-degree-of-conflict case (Figure 5.2,
// Table 5.2): P3's commit now also kills P4, so σ2 = p3 p2 with both
// P1 and P4 aborted: T_single=5, T_multi=3, speedup 1.67.
func Fig52System() *core.System {
	s, err := core.NewSystem([]*core.Production{
		{Name: "P1", Time: 5},
		{Name: "P2", Time: 3, Del: []string{"P1"}},
		{Name: "P3", Time: 2, Del: []string{"P4"}},
		{Name: "P4", Time: 4},
	}, []string{"P1", "P2", "P3", "P4"})
	if err != nil {
		panic("workload: fig52: " + err.Error())
	}
	return s
}

// Fig53System returns the execution-time-variation case (Figure 5.3):
// the base case with T(P2) increased by one unit: T_single=10,
// T_multi=4, speedup 2.5.
func Fig53System() *core.System {
	s, err := core.NewSystem([]*core.Production{
		{Name: "P1", Time: 5},
		{Name: "P2", Time: 4, Del: []string{"P1"}},
		{Name: "P3", Time: 2},
		{Name: "P4", Time: 4},
	}, []string{"P1", "P2", "P3", "P4"})
	if err != nil {
		panic("workload: fig53: " + err.Error())
	}
	return s
}

// Fig54Np returns the processor count of the Figure 5.4 variation: the
// base case of Figure 5.1 run on three processors instead of four
// (T_single=9, T_multi=6, speedup 1.5).
func Fig54Np() int { return 3 }

// RandomAbstract generates a random terminating abstract system: n
// productions, each deleting up to delDegree later productions and
// adding up to addDegree later productions (later-only references keep
// the system acyclic, hence terminating), with execution times in
// [1, maxTime]. All productions whose index is even start active.
func RandomAbstract(seed int64, n, delDegree, addDegree, maxTime int) *core.System {
	rng := rand.New(rand.NewSource(seed))
	prods := make([]*core.Production, n)
	names := make([]string, n)
	for i := range prods {
		names[i] = fmt.Sprintf("P%d", i+1)
	}
	for i := range prods {
		p := &core.Production{Name: names[i], Time: 1 + rng.Intn(maxTime)}
		for d := 0; d < delDegree; d++ {
			if j := i + 1 + rng.Intn(n); j < n && rng.Intn(2) == 0 {
				p.Del = append(p.Del, names[j])
			}
		}
		for a := 0; a < addDegree; a++ {
			if j := i + 1 + rng.Intn(n); j < n && rng.Intn(2) == 0 {
				p.Add = append(p.Add, names[j])
			}
		}
		prods[i] = p
	}
	var initial []string
	for i := 0; i < n; i++ {
		if i%2 == 0 || rng.Intn(3) == 0 {
			initial = append(initial, names[i])
		}
	}
	s, err := core.NewSystem(prods, initial)
	if err != nil {
		panic("workload: random abstract: " + err.Error())
	}
	return s
}

// ConflictChain builds an abstract system of n unit-or-varying-time
// productions where production i deletes the next `degree` productions
// — a tunable degree-of-conflict workload for the Section 5 sweeps.
// All n productions start active.
func ConflictChain(n, degree, timeBase int) *core.System {
	prods := make([]*core.Production, n)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("P%d", i+1)
	}
	for i := range prods {
		p := &core.Production{Name: names[i], Time: timeBase + i%3}
		for d := 1; d <= degree; d++ {
			if i+d < n {
				p.Del = append(p.Del, names[i+d])
			}
		}
		prods[i] = p
	}
	s, err := core.NewSystem(prods, names)
	if err != nil {
		panic("workload: conflict chain: " + err.Error())
	}
	return s
}

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
			panic("workload: bad attr value")
		}
	}
	return m
}

// Pipeline builds a concrete program that moves `parts` parts through
// `stages` stages and removes them at the end: parts×stages firings,
// empty final working memory, and no inter-part conflicts — an
// embarrassingly parallel workload.
func Pipeline(parts, stages int) engine.Program {
	var rules []*match.Rule
	for s := 0; s < stages-1; s++ {
		rules = append(rules, &match.Rule{
			Name: fmt.Sprintf("advance%d", s),
			Conditions: []match.Condition{
				{Class: "part", Tests: []match.AttrTest{
					{Attr: "stage", Op: match.OpEq, Const: wm.Int(int64(s))},
				}},
			},
			Actions: []match.Action{
				{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
					{Attr: "stage", Expr: match.ConstExpr{Val: wm.Int(int64(s + 1))}},
				}},
			},
		})
	}
	rules = append(rules, &match.Rule{
		Name: "finish",
		Conditions: []match.Condition{
			{Class: "part", Tests: []match.AttrTest{
				{Attr: "stage", Op: match.OpEq, Const: wm.Int(int64(stages - 1))},
			}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	})
	p := engine.Program{Rules: rules}
	for i := 0; i < parts; i++ {
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "part", Attrs: attrs("stage", 0, "id", i)})
	}
	return p
}

// JoinHeavy builds a match-bound workload: each task tuple must join
// `depth` reference classes on its key before it can be marked done,
// and every reference class holds one tuple per key. An unindexed
// join scans a whole reference class per activation (O(keys) per
// token), while a hashed join probes a single-entry bucket, so the
// workload isolates the cost the Doorenbos memory indexes remove.
// Firings: keys; no inter-task conflicts.
func JoinHeavy(keys, depth int) engine.Program {
	conds := []match.Condition{{Class: "task", Tests: []match.AttrTest{
		{Attr: "k", Op: match.OpEq, Var: "x"},
		{Attr: "done", Op: match.OpEq, Const: wm.Bool(false)},
	}}}
	for l := 0; l < depth; l++ {
		conds = append(conds, match.Condition{
			Class: fmt.Sprintf("ref%d", l),
			Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}},
		})
	}
	finish := &match.Rule{
		Name:       "finish",
		Conditions: conds,
		Actions: []match.Action{{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
			{Attr: "done", Expr: match.ConstExpr{Val: wm.Bool(true)}},
		}}},
	}
	p := engine.Program{Rules: []*match.Rule{finish}}
	for i := 0; i < keys; i++ {
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "task", Attrs: attrs("k", i, "done", false)})
		for l := 0; l < depth; l++ {
			p.WMEs = append(p.WMEs, engine.InitialWME{Class: fmt.Sprintf("ref%d", l), Attrs: attrs("k", i)})
		}
	}
	return p
}

// JoinHeavyMisordered is JoinHeavy with an adversarial source order:
// the rule lists `width`-tuples-per-key wide reference classes first,
// then a constant-selective `sel` class (one tuple per 16th key), and
// the task pattern last. Compiled in source order the chain builds
// keys×width-scale intermediate beta memories before the selective
// patterns prune anything; the static cost planner reorders it to lead
// with sel and task. Firings: keys/16 (the hot keys).
func JoinHeavyMisordered(keys, width int) engine.Program {
	kv := func() []match.AttrTest {
		return []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}
	}
	finish := &match.Rule{
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
		Actions: []match.Action{{Kind: match.ActModify, CE: 3, Assigns: []match.AttrAssign{
			{Attr: "done", Expr: match.ConstExpr{Val: wm.Bool(true)}},
		}}},
	}
	p := engine.Program{Rules: []*match.Rule{finish}}
	for i := 0; i < keys; i++ {
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "task", Attrs: attrs("k", i, "done", false)})
		for c := 0; c < width; c++ {
			p.WMEs = append(p.WMEs, engine.InitialWME{Class: "wide0", Attrs: attrs("k", i, "v", c)})
			p.WMEs = append(p.WMEs, engine.InitialWME{Class: "wide1", Attrs: attrs("k", i, "v", c)})
		}
		if i%16 == 0 {
			p.WMEs = append(p.WMEs, engine.InitialWME{Class: "sel", Attrs: attrs("k", i, "hot", true)})
		}
	}
	return p
}

// JoinHeavySkewed is the adaptive-replan workload: the rule's classes
// look statically interchangeable (no constant tests on the join
// classes, so the compile-time planner keeps task first and the big
// classes before tiny), but at run time big0/big1 hold `width` tuples
// per key while tiny holds one tuple per `sparsity` keys. Only live
// cardinalities reveal that tiny should join right after task —
// exactly what `Options.AdaptiveRete` discovers. Firings:
// keys/sparsity.
func JoinHeavySkewed(keys, width, sparsity int) engine.Program {
	kv := func() []match.AttrTest {
		return []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "x"}}
	}
	finish := &match.Rule{
		Name: "finish",
		Conditions: []match.Condition{
			{Class: "task", Tests: []match.AttrTest{
				{Attr: "k", Op: match.OpEq, Var: "x"},
				{Attr: "done", Op: match.OpEq, Const: wm.Bool(false)},
			}},
			{Class: "big0", Tests: kv()},
			{Class: "big1", Tests: kv()},
			{Class: "tiny", Tests: kv()},
		},
		Actions: []match.Action{{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
			{Attr: "done", Expr: match.ConstExpr{Val: wm.Bool(true)}},
		}}},
	}
	p := engine.Program{Rules: []*match.Rule{finish}}
	for i := 0; i < keys; i++ {
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "task", Attrs: attrs("k", i, "done", false)})
		for c := 0; c < width; c++ {
			p.WMEs = append(p.WMEs, engine.InitialWME{Class: "big0", Attrs: attrs("k", i, "v", c)})
			p.WMEs = append(p.WMEs, engine.InitialWME{Class: "big1", Attrs: attrs("k", i, "v", c)})
		}
		if i%sparsity == 0 {
			p.WMEs = append(p.WMEs, engine.InitialWME{Class: "tiny", Attrs: attrs("k", i)})
		}
	}
	return p
}

// ManyRulesFanout is the alpha-network workload (E22): `rules`
// single-CE rules over one event class, each testing three overlapping
// constants — a category shared by rules/16 rules, a priority band,
// and a live flag shared by every rule — so a linear alpha network
// re-evaluates all `rules` predicate closures per assert while the
// discrimination network answers with one hash probe plus the shared
// residual tests. Every event carries a (cat, pri) pair owned by
// exactly one rule, which consumes it. Firings: events; final working
// memory is empty.
func ManyRulesFanout(rules, events int) engine.Program {
	cats := 16
	if rules < cats {
		cats = rules
	}
	p := engine.Program{}
	for r := 0; r < rules; r++ {
		p.Rules = append(p.Rules, &match.Rule{
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
		})
	}
	for e := 0; e < events; e++ {
		r := e % rules
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "event",
			Attrs: attrs("cat", r%cats, "pri", r/cats, "live", true, "seq", e)})
	}
	return p
}

// SharedCounter builds the high-conflict variant of Pipeline: every
// stage advance also increments one shared tally tuple, so all firings
// write-conflict on it. Firings: parts×stages; final tally equals that
// count.
func SharedCounter(parts, stages int) engine.Program {
	var rules []*match.Rule
	for s := 0; s < stages; s++ {
		rules = append(rules, &match.Rule{
			Name: fmt.Sprintf("tick%d", s),
			Conditions: []match.Condition{
				{Class: "part", Tests: []match.AttrTest{
					{Attr: "stage", Op: match.OpEq, Const: wm.Int(int64(s))},
				}},
				{Class: "tally", Tests: []match.AttrTest{
					{Attr: "n", Op: match.OpEq, Var: "t"},
				}},
			},
			Actions: []match.Action{
				{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
					{Attr: "stage", Expr: match.ConstExpr{Val: wm.Int(int64(s + 1))}},
				}},
				{Kind: match.ActModify, CE: 1, Assigns: []match.AttrAssign{
					{Attr: "n", Expr: match.BinExpr{Op: match.ArithAdd, L: match.VarExpr{Name: "t"}, R: match.ConstExpr{Val: wm.Int(1)}}},
				}},
			},
		})
	}
	p := engine.Program{Rules: rules, WMEs: []engine.InitialWME{{Class: "tally", Attrs: attrs("n", 0)}}}
	for i := 0; i < parts; i++ {
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "part", Attrs: attrs("stage", 0, "id", i)})
	}
	return p
}

// Independent builds the elision-friendly extreme: `rules` rules, each
// over its own private class, stepping its own single counter tuple
// `steps` times. No rule's write set overlaps any other rule's read or
// write set, so the Section 4.1 analysis declares every pair
// non-interfering — and each rule has exactly one tuple, so no two
// instances of the same rule are ever simultaneously active. Under
// HybridElision every firing takes the lock-free path; with elision
// off, every firing pays the full Rc/Wa lock round-trip for nothing.
// Firings: rules×steps; final value of every counter equals steps.
func Independent(rules, steps int) engine.Program {
	var p engine.Program
	for r := 0; r < rules; r++ {
		cls := fmt.Sprintf("cell%d", r)
		p.Rules = append(p.Rules, &match.Rule{
			Name: fmt.Sprintf("step%d", r),
			Conditions: []match.Condition{
				{Class: cls, Tests: []match.AttrTest{
					{Attr: "v", Op: match.OpEq, Var: "x"},
					{Attr: "v", Op: match.OpLt, Const: wm.Int(int64(steps))},
				}},
			},
			Actions: []match.Action{
				{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
					{Attr: "v", Expr: match.BinExpr{Op: match.ArithAdd,
						L: match.VarExpr{Name: "x"}, R: match.ConstExpr{Val: wm.Int(1)}}},
				}},
			},
		})
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: cls, Attrs: attrs("v", 0)})
	}
	return p
}

// Guarded builds a program exercising negated conditions and lock
// escalation: each job is shipped only while no hold tuple for its
// lane exists; a matching auditor rule files holds for odd lanes
// first. Jobs in held lanes are released when the hold is cleared.
func Guarded(jobs int) engine.Program {
	ship := &match.Rule{
		Name: "ship",
		Conditions: []match.Condition{
			{Class: "job", Tests: []match.AttrTest{
				{Attr: "lane", Op: match.OpEq, Var: "l"},
				{Attr: "state", Op: match.OpEq, Const: wm.Sym("ready")},
			}},
			{Class: "hold", Negated: true, Tests: []match.AttrTest{
				{Attr: "lane", Op: match.OpEq, Var: "l"},
			}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	clear := &match.Rule{
		Name: "clear",
		Conditions: []match.Condition{
			{Class: "hold", Tests: []match.AttrTest{
				{Attr: "lane", Op: match.OpEq, Var: "l"},
			}},
		},
		Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
	}
	p := engine.Program{Rules: []*match.Rule{ship, clear}}
	for i := 0; i < jobs; i++ {
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "job", Attrs: attrs("lane", i%4, "state", "ready")})
	}
	p.WMEs = append(p.WMEs,
		engine.InitialWME{Class: "hold", Attrs: attrs("lane", 1)},
		engine.InitialWME{Class: "hold", Attrs: attrs("lane", 3)},
	)
	return p
}

// RandomProgram generates a random terminating concrete program:
// layered classes c0..c(layers-1); rules consume a tuple of layer i
// and produce one of layer i+1 (the last layer's rules just remove),
// so every run terminates with an empty working memory.
func RandomProgram(seed int64, layers, width int) engine.Program {
	rng := rand.New(rand.NewSource(seed))
	var rules []*match.Rule
	for l := 0; l < layers; l++ {
		cls := fmt.Sprintf("c%d", l)
		r := &match.Rule{
			Name: fmt.Sprintf("r%d", l),
			Conditions: []match.Condition{
				{Class: cls, Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
			},
		}
		if l == layers-1 {
			r.Actions = []match.Action{{Kind: match.ActRemove, CE: 0}}
		} else {
			r.Actions = []match.Action{
				{Kind: match.ActRemove, CE: 0},
				{Kind: match.ActMake, Class: fmt.Sprintf("c%d", l+1),
					Assigns: []match.AttrAssign{{Attr: "v", Expr: match.VarExpr{Name: "x"}}}},
			}
		}
		rules = append(rules, r)
	}
	p := engine.Program{Rules: rules}
	for i := 0; i < width; i++ {
		p.WMEs = append(p.WMEs, engine.InitialWME{
			Class: fmt.Sprintf("c%d", rng.Intn(layers)),
			Attrs: attrs("v", rng.Intn(1000)),
		})
	}
	return p
}

// RandomContended generates a terminating but conflict-heavy concrete
// program for schedule fuzzing, and the exact number of commits every
// consistent execution of it performs. The skeleton is the layered
// consumption of RandomProgram — each rule removes a c<l> tuple and
// makes its layer-l+1 successors — spiced with three contention
// sources chosen from the seed:
//
//   - fan-out: a layer's rule may make two successor tuples with the
//     same value, so working memory accumulates duplicate-content
//     tuples (stressing the fingerprint backtracking in CheckTrace);
//   - a hub: with probability hubProb per layer, the rule also reads
//     and modifies the single shared (hub ^n ...) tuple, serialising
//     every coupled firing through one Wa lock;
//   - negation: with probability negProb per layer, the rule gets a
//     negated condition on the hub class that never matches (^n < 0),
//     forcing a relation-level Rc lock that collides with the hub
//     writers' tuple-level Wa — the escalation path and, under
//     SchemeRcRaWa, the commit-time Rc-victim rule.
//
// None of the three changes the commit count of a consistent run:
// every c<l> tuple is consumed exactly once regardless of order, the
// hub modify is always enabled, and the negation is always satisfied.
func RandomContended(seed int64, layers, width int, hubProb, negProb float64) (engine.Program, int) {
	rng := rand.New(rand.NewSource(seed))
	if layers < 1 {
		layers = 1
	}
	if width < 1 {
		width = 1
	}
	fanout := make([]int, layers) // successor tuples made per firing
	hub := make([]bool, layers)
	neg := make([]bool, layers)
	anyHub := false
	for l := 0; l < layers; l++ {
		fanout[l] = 1
		if l < layers-1 && rng.Float64() < 0.3 {
			fanout[l] = 2
		}
		hub[l] = rng.Float64() < hubProb
		neg[l] = rng.Float64() < negProb
		anyHub = anyHub || hub[l]
	}
	var rules []*match.Rule
	for l := 0; l < layers; l++ {
		cls := fmt.Sprintf("c%d", l)
		r := &match.Rule{
			Name: fmt.Sprintf("r%d", l),
			Conditions: []match.Condition{
				{Class: cls, Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
		}
		if hub[l] {
			r.Conditions = append(r.Conditions, match.Condition{
				Class: "hub", Tests: []match.AttrTest{{Attr: "n", Op: match.OpEq, Var: "t"}}})
			r.Actions = append(r.Actions, match.Action{
				Kind: match.ActModify, CE: 1,
				Assigns: []match.AttrAssign{{Attr: "n", Expr: match.BinExpr{
					Op: match.ArithAdd, L: match.VarExpr{Name: "t"}, R: match.ConstExpr{Val: wm.Int(1)}}}},
			})
		}
		if neg[l] {
			r.Conditions = append(r.Conditions, match.Condition{
				Class: "hub", Negated: true,
				Tests: []match.AttrTest{{Attr: "n", Op: match.OpLt, Const: wm.Int(0)}}})
		}
		if l < layers-1 {
			for k := 0; k < fanout[l]; k++ {
				r.Actions = append(r.Actions, match.Action{
					Kind: match.ActMake, Class: fmt.Sprintf("c%d", l+1),
					Assigns: []match.AttrAssign{{Attr: "v", Expr: match.VarExpr{Name: "x"}}}})
			}
		}
		rules = append(rules, r)
	}
	// firingsFrom[l] is the total commits one layer-l tuple causes.
	firingsFrom := make([]int, layers)
	for l := layers - 1; l >= 0; l-- {
		firingsFrom[l] = 1
		if l < layers-1 {
			firingsFrom[l] += fanout[l] * firingsFrom[l+1]
		}
	}
	p := engine.Program{Rules: rules}
	total := 0
	for i := 0; i < width; i++ {
		l := rng.Intn(layers)
		total += firingsFrom[l]
		p.WMEs = append(p.WMEs, engine.InitialWME{
			Class: fmt.Sprintf("c%d", l),
			// A tiny value domain, so duplicate-content tuples are common.
			Attrs: attrs("v", rng.Intn(3)),
		})
	}
	if anyHub || anyNeg(neg) {
		p.WMEs = append(p.WMEs, engine.InitialWME{Class: "hub", Attrs: attrs("n", 0)})
	}
	return p, total
}

func anyNeg(neg []bool) bool {
	for _, n := range neg {
		if n {
			return true
		}
	}
	return false
}
