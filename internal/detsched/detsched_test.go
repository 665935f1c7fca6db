package detsched

import (
	"reflect"
	"strings"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/lang"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/sched"
	"pdps/internal/trace"
	"pdps/internal/wm"
	"pdps/internal/workload"
)

func attrs(kv ...interface{}) map[string]wm.Value {
	out := make(map[string]wm.Value)
	for i := 0; i < len(kv); i += 2 {
		k := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int:
			out[k] = wm.Int(int64(v))
		case bool:
			out[k] = wm.Bool(v)
		case string:
			out[k] = wm.Sym(v)
		default:
			panic("attrs: unsupported value")
		}
	}
	return out
}

// fig44Program is the circular Rc/Wa dependency of Figure 4.4: rule pi
// reads q and writes r, pj reads r and writes q; each commit falsifies
// the other rule, so every consistent execution commits exactly once.
func fig44Program() engine.Program {
	mk := func(name, readClass, writeClass string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: readClass, Tests: []match.AttrTest{{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)}}},
				{Class: writeClass, Tests: []match.AttrTest{{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)}}},
			},
			Actions: []match.Action{{Kind: match.ActModify, CE: 1, Assigns: []match.AttrAssign{
				{Attr: "hot", Expr: match.ConstExpr{Val: wm.Bool(false)}}}}},
		}
	}
	return engine.Program{
		Rules: []*match.Rule{mk("pi", "q", "r"), mk("pj", "r", "q")},
		WMEs: []engine.InitialWME{
			{Class: "q", Attrs: attrs("hot", true)},
			{Class: "r", Attrs: attrs("hot", true)},
		},
	}
}

// rcWaProgram exercises the Rc–Wa abort rule (Section 4.3, rule (ii)):
// the reader holds a pure Rc on its matched job tuple (it writes only
// the slot class) while the producer makes a new job tuple — a
// relation-level Wa conflicting with the reader's Rc without ever
// falsifying its condition. Every consistent execution commits both
// rules exactly once.
func rcWaProgram() engine.Program {
	reader := &match.Rule{
		Name: "reader",
		Conditions: []match.Condition{
			{Class: "job", Tests: []match.AttrTest{{Attr: "id", Op: match.OpEq, Const: wm.Int(1)}}},
			{Class: "slot", Tests: []match.AttrTest{{Attr: "used", Op: match.OpEq, Const: wm.Bool(false)}}},
		},
		Actions: []match.Action{{Kind: match.ActModify, CE: 1, Assigns: []match.AttrAssign{
			{Attr: "used", Expr: match.ConstExpr{Val: wm.Bool(true)}}}}},
	}
	producer := &match.Rule{
		Name: "producer",
		Conditions: []match.Condition{
			{Class: "seed", Tests: []match.AttrTest{{Attr: "fresh", Op: match.OpEq, Const: wm.Bool(true)}}},
		},
		Actions: []match.Action{
			{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
				{Attr: "fresh", Expr: match.ConstExpr{Val: wm.Bool(false)}}}},
			{Kind: match.ActMake, Class: "job", Assigns: []match.AttrAssign{
				{Attr: "id", Expr: match.ConstExpr{Val: wm.Int(99)}}}},
		},
	}
	return engine.Program{
		Rules: []*match.Rule{reader, producer},
		WMEs: []engine.InitialWME{
			{Class: "job", Attrs: attrs("id", 1)},
			{Class: "slot", Attrs: attrs("used", false)},
			{Class: "seed", Attrs: attrs("fresh", true)},
		},
	}
}

// counterProgram is a maximally contended counter: two single-CE rules
// race to bump the same tuple, so every firing takes Rc and Wa on the
// one shared resource and the schemes' abort rules fire constantly.
// Every consistent execution commits both rules exactly once, in
// either order.
func counterProgram() engine.Program {
	mk := func(name, flag string) *match.Rule {
		return &match.Rule{
			Name: name,
			Conditions: []match.Condition{
				{Class: "n", Tests: []match.AttrTest{
					{Attr: flag, Op: match.OpEq, Const: wm.Bool(false)},
					{Attr: "v", Op: match.OpEq, Var: "x"},
				}},
			},
			Actions: []match.Action{{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
				{Attr: flag, Expr: match.ConstExpr{Val: wm.Bool(true)}},
				{Attr: "v", Expr: match.BinExpr{Op: match.ArithAdd,
					L: match.VarExpr{Name: "x"}, R: match.ConstExpr{Val: wm.Int(1)}}},
			}}},
		}
	}
	return engine.Program{
		Rules: []*match.Rule{mk("bump_a", "a"), mk("bump_b", "b")},
		WMEs: []engine.InitialWME{
			{Class: "n", Attrs: attrs("v", 0, "a", false, "b", false)},
		},
	}
}

// readModifyProgram is the static approach's read-modify witness: bread
// and amod do not interfere attribute by attribute, but amod's modify
// re-tags the tuple bread read. Only the tuple guard (Clashes) keeps
// them in separate waves.
func readModifyProgram() engine.Program {
	return lang.MustParse(`
(p bread (c ^x 1) --> (make log ^v 1))
(p amod (c ^y 0) --> (modify 1 ^y 1))
(wme c ^x 1 ^y 0)`)
}

// twoClassProgram's rules touch disjoint classes, so the static policy
// fires them in one wave and may commit them in either order.
func twoClassProgram() engine.Program {
	return lang.MustParse(`
(p a (x ^v 0) --> (modify 1 ^v 1))
(p b (y ^v 0) --> (modify 1 ^v 1))
(wme x ^v 0)
(wme y ^v 0)`)
}

// renderEvents flattens a trace for bit-for-bit comparison, excluding
// only the wall-clock At timestamps.
func renderEvents(log *trace.Log) []string {
	evs := log.Events()
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = strings.Join([]string{
			ev.Kind.String(), ev.Rule, ev.Inst, ev.Detail, strings.Join(ev.WMEs, ","),
		}, "|")
	}
	return out
}

// TestSeededRunReproducible replays the same seed twice on both
// locking schemes and requires bit-for-bit identical traces and
// decision sequences — the acceptance criterion for seeded replay.
func TestSeededRunReproducible(t *testing.T) {
	prog := workload.SharedCounter(3, 2)
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		t.Run(scheme.String(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				cfg := Config{Scheme: scheme, Np: 3}
				a := Run(prog, cfg, sched.NewRandom(seed))
				b := Run(prog, cfg, sched.NewRandom(seed))
				if err := Check(prog, a); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(a.Choices, b.Choices) {
					t.Fatalf("seed %d: decision sequences differ", seed)
				}
				ra, rb := renderEvents(a.Result.Log), renderEvents(b.Result.Log)
				if !reflect.DeepEqual(ra, rb) {
					t.Fatalf("seed %d: traces differ:\n%v\nvs\n%v", seed, ra, rb)
				}
				if a.Result.Firings != 6 {
					t.Fatalf("seed %d: firings = %d, want 6", seed, a.Result.Firings)
				}
			}
		})
	}
}

// TestSeededRunsDiffer sanity-checks that the harness actually
// explores: across seeds, the shared-counter program must realise more
// than one distinct serialization.
func TestSeededRunsDiffer(t *testing.T) {
	prog := workload.SharedCounter(3, 2)
	seqs := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		out := Run(prog, Config{Scheme: lock.Scheme2PL, Np: 3}, sched.NewRandom(seed))
		if err := Check(prog, out); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seqs[SeqKey(out.Commits())] = true
	}
	if len(seqs) < 2 {
		t.Fatalf("20 seeds produced %d distinct serializations; scheduler not exploring", len(seqs))
	}
}

// TestPCTPolicyRuns drives the engine under PCT sampling: every
// sampled schedule must complete and pass the oracle.
func TestPCTPolicyRuns(t *testing.T) {
	prog := fig44Program()
	for seed := int64(0); seed < 10; seed++ {
		out := Run(prog, Config{Scheme: lock.Scheme2PL, Np: 2}, sched.NewPCT(seed, 0.1))
		if err := Check(prog, out); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Result.Firings != 1 {
			t.Fatalf("seed %d: firings = %d, want 1", seed, out.Result.Firings)
		}
	}
}

// TestExhaustiveConsistency is the Definition 3.2 acceptance check:
// for three small conflict-heavy programs (the Figure 4.4 deadlock
// pair, the Rc–Wa abort-rule program, and a shared-counter workload),
// under both 2PL and the improved scheme, EVERY schedule the engine
// can produce yields a commit trace admitted by the single-thread
// execution graph (engine.CheckTrace inside Explore). The static
// policy's rows do the same for Theorem 1 on Figure 4.4, the counter,
// the read-modify witness and a two-class program whose wave commits
// in either order.
//
// The schedule and serialization counts are pinned exactly: each
// scheduling point of the controlled pipeline (task start, lock
// request, park, sleep, timer) multiplies the space, so a change that
// adds, drops or moves one fails here rather than silently exploring a
// different pipeline.
func TestExhaustiveConsistency(t *testing.T) {
	cases := []struct {
		name    string
		prog    engine.Program
		firings int
		// schedules is the exact count per scheme: 2PL, then Rc/Ra/Wa.
		schedules [2]int
	}{
		{"fig44", fig44Program(), 1, [2]int{182, 362}},
		{"rcwa", rcWaProgram(), 2, [2]int{102, 448}},
		{"counter", counterProgram(), 2, [2]int{1346, 2834}},
	}
	const cap = 6000
	for _, tc := range cases {
		for i, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
			t.Run(tc.name+"/"+scheme.String(), func(t *testing.T) {
				rep, err := Explore(tc.prog, Config{Scheme: scheme, Np: 2}, cap)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Truncated {
					t.Fatalf("state space over %d schedules; shrink the program", cap)
				}
				if rep.Schedules != tc.schedules[i] {
					t.Fatalf("explored %d schedules, want %d", rep.Schedules, tc.schedules[i])
				}
				if len(rep.Serializations) != 2 {
					t.Fatalf("found %d serializations, want 2", len(rep.Serializations))
				}
				for seq := range rep.Serializations {
					if got := strings.Count(seq, "["); got != tc.firings && seq != "" {
						t.Fatalf("serialization %q has %d commits, want %d", seq, got, tc.firings)
					}
				}
				t.Logf("%d schedules, %d serializations", rep.Schedules, len(rep.Serializations))
			})
		}
	}
	for _, tc := range []struct {
		name                      string
		prog                      engine.Program
		schedules, serializations int
	}{
		{"fig44", fig44Program(), 1, 1},
		{"counter", counterProgram(), 1, 1},
		{"read-modify", readModifyProgram(), 1, 1},
		{"two-class", twoClassProgram(), 4, 2},
	} {
		t.Run(tc.name+"/static", func(t *testing.T) {
			rep, err := exploreStatic(tc.prog, Config{Np: 2}, cap)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Truncated {
				t.Fatalf("state space over %d schedules; shrink the program", cap)
			}
			if rep.Schedules != tc.schedules || len(rep.Serializations) != tc.serializations {
				t.Fatalf("explored %d schedules and %d serializations, want %d and %d",
					rep.Schedules, len(rep.Serializations), tc.schedules, tc.serializations)
			}
		})
	}
}

// TestExploreFindsMultipleSerializations: on a program with genuinely
// commutative firings the exhaustive walk must surface more than one
// admissible serialization (the many-admissible-outcomes point).
func TestExploreFindsMultipleSerializations(t *testing.T) {
	prog := counterProgram()
	rep, err := Explore(prog, Config{Scheme: lock.Scheme2PL, Np: 2}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Serializations) < 2 {
		t.Fatalf("got %d serializations, want >= 2 (parts can tick in either order)", len(rep.Serializations))
	}
}
