package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pdps/internal/cr"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/sched"
	"pdps/internal/trace"
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

// counterProgram decrements a counter to zero: n firings for initial n.
func counterProgram(n int) Program {
	dec := &match.Rule{
		Name: "dec",
		Conditions: []match.Condition{
			{Class: "counter", Tests: []match.AttrTest{
				{Attr: "n", Op: match.OpEq, Var: "x"},
				{Attr: "n", Op: match.OpGt, Const: wm.Int(0)},
			}},
		},
		Actions: []match.Action{
			{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
				{Attr: "n", Expr: match.BinExpr{Op: match.ArithSub, L: match.VarExpr{Name: "x"}, R: match.ConstExpr{Val: wm.Int(1)}}},
			}},
		},
	}
	return Program{
		Rules: []*match.Rule{dec},
		WMEs:  []InitialWME{{Class: "counter", Attrs: attrs("n", n)}},
	}
}

// pipelineProgram moves parts through stages 0..stages-1 and removes
// them at the last stage: parts*stages commits, empty final WM.
func pipelineProgram(parts, stages int) Program {
	var rules []*match.Rule
	for s := 0; s < stages-1; s++ {
		rules = append(rules, &match.Rule{
			Name: "advance" + string(rune('0'+s)),
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
	p := Program{Rules: rules}
	for i := 0; i < parts; i++ {
		p.WMEs = append(p.WMEs, InitialWME{Class: "part", Attrs: attrs("stage", 0, "id", i)})
	}
	return p
}

// tallyProgram is the high-conflict variant: every stage advance also
// increments a single shared tally tuple, so all firings write-conflict.
func tallyProgram(parts, stages int) Program {
	var rules []*match.Rule
	for s := 0; s < stages; s++ {
		rules = append(rules, &match.Rule{
			Name: "tick" + string(rune('0'+s)),
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
	p := Program{Rules: rules, WMEs: []InitialWME{{Class: "tally", Attrs: attrs("n", 0)}}}
	for i := 0; i < parts; i++ {
		p.WMEs = append(p.WMEs, InitialWME{Class: "part", Attrs: attrs("stage", 0, "id", i)})
	}
	return p
}

func TestSingleCounter(t *testing.T) {
	e, err := NewSingle(counterProgram(5), Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 5 {
		t.Fatalf("firings = %d, want 5", res.Firings)
	}
	final := e.Store().ByClass("counter")
	if len(final) != 1 || !final[0].Attr("n").Equal(wm.Int(0)) {
		t.Fatalf("final counter = %v", final)
	}
	if err := CheckTrace(counterProgram(5), res.Log.Commits()); err != nil {
		t.Fatalf("trace check: %v", err)
	}
}

func TestSinglePipeline(t *testing.T) {
	p := pipelineProgram(4, 3)
	e, err := NewSingle(p, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 12 {
		t.Fatalf("firings = %d, want 12", res.Firings)
	}
	if e.Store().Len() != 0 {
		t.Fatalf("final WM size = %d, want 0", e.Store().Len())
	}
	if err := CheckTrace(p, res.Log.Commits()); err != nil {
		t.Fatal(err)
	}
}

func TestSingleHalt(t *testing.T) {
	p := counterProgram(100)
	p.Rules = append(p.Rules, &match.Rule{
		Name:     "stop",
		Priority: 10,
		Conditions: []match.Condition{
			{Class: "counter", Tests: []match.AttrTest{
				{Attr: "n", Op: match.OpEq, Const: wm.Int(97)},
			}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	})
	e, err := NewSingle(p, Options{Strategy: cr.Priority{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("halt action did not stop the run")
	}
	if res.Firings != 4 { // 3 decrements + the halt firing
		t.Fatalf("firings = %d, want 4", res.Firings)
	}
}

func TestSingleRefraction(t *testing.T) {
	// A rule whose action does not disturb its own condition fires
	// exactly once per instantiation (refraction), so the run halts.
	p := Program{
		Rules: []*match.Rule{{
			Name:       "note",
			Conditions: []match.Condition{{Class: "config"}},
			Actions: []match.Action{{Kind: match.ActMake, Class: "log",
				Assigns: []match.AttrAssign{{Attr: "v", Expr: match.ConstExpr{Val: wm.Int(1)}}}}},
		}},
		WMEs: []InitialWME{{Class: "config", Attrs: attrs("k", 1)}},
	}
	e, err := NewSingle(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 1 {
		t.Fatalf("firings = %d, want 1 (refraction)", res.Firings)
	}
	if len(e.Store().ByClass("log")) != 1 {
		t.Fatal("action effect missing")
	}
}

func TestSingleMaxFirings(t *testing.T) {
	// Self-perpetuating rule: every firing creates a fresh match.
	p := Program{
		Rules: []*match.Rule{{
			Name:       "spin",
			Conditions: []match.Condition{{Class: "token"}},
			Actions: []match.Action{
				{Kind: match.ActRemove, CE: 0},
				{Kind: match.ActMake, Class: "token"},
			},
		}},
		WMEs: []InitialWME{{Class: "token", Attrs: nil}},
	}
	e, err := NewSingle(p, Options{MaxFirings: 25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.LimitHit || res.Firings != 25 {
		t.Fatalf("limit = %v, firings = %d", res.LimitHit, res.Firings)
	}
}

func TestParallelPipelineBothSchemes(t *testing.T) {
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		p := pipelineProgram(6, 4)
		e, err := NewParallel(p, scheme, Options{Np: 4, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Firings != 24 {
			t.Fatalf("%v: firings = %d, want 24", scheme, res.Firings)
		}
		if e.Store().Len() != 0 {
			t.Fatalf("%v: final WM size = %d, want 0", scheme, e.Store().Len())
		}
		if err := CheckTrace(p, res.Log.Commits()); err != nil {
			t.Fatalf("%v: trace check: %v", scheme, err)
		}
	}
}

func TestParallelHighConflictTally(t *testing.T) {
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		for _, policy := range []AbortPolicy{AbortAlways, AbortReevaluate} {
			p := tallyProgram(4, 3)
			e, err := NewParallel(p, scheme, Options{Np: 4, Verify: true, AbortPolicy: policy})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, policy, err)
			}
			if res.Firings != 12 {
				t.Fatalf("%v/%v: firings = %d, want 12", scheme, policy, res.Firings)
			}
			tally := e.Store().ByClass("tally")
			if len(tally) != 1 || !tally[0].Attr("n").Equal(wm.Int(12)) {
				t.Fatalf("%v/%v: tally = %v, want 12", scheme, policy, tally)
			}
			if err := CheckTrace(p, res.Log.Commits()); err != nil {
				t.Fatalf("%v/%v: trace check: %v", scheme, policy, err)
			}
		}
	}
}

func TestParallelHalt(t *testing.T) {
	p := counterProgram(1000)
	p.Rules = append(p.Rules, &match.Rule{
		Name: "stop",
		Conditions: []match.Condition{
			{Class: "counter", Tests: []match.AttrTest{
				{Attr: "n", Op: match.OpLe, Const: wm.Int(995)},
			}},
		},
		Actions: []match.Action{{Kind: match.ActHalt}},
	})
	e, err := NewParallel(p, lock.SchemeRcRaWa, Options{Np: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("halt did not stop the parallel run")
	}
	if res.LimitHit {
		t.Fatal("halt run must not hit the firing limit")
	}
}

func TestParallelMaxFirings(t *testing.T) {
	p := Program{
		Rules: []*match.Rule{{
			Name:       "spin",
			Conditions: []match.Condition{{Class: "token"}},
			Actions: []match.Action{
				{Kind: match.ActRemove, CE: 0},
				{Kind: match.ActMake, Class: "token"},
			},
		}},
		WMEs: []InitialWME{{Class: "token", Attrs: nil}},
	}
	e, err := NewParallel(p, lock.SchemeRcRaWa, Options{MaxFirings: 20, Np: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.LimitHit {
		t.Fatal("limit not reported")
	}
	if res.Firings > 20 {
		t.Fatalf("firings = %d exceeded the limit", res.Firings)
	}
}

// TestParallelFig44CircularConflict reproduces Figure 4.4: Pi reads q
// and writes r, Pj reads r and writes q. Under 2PL this deadlocks (one
// is the victim); under Rc/Ra/Wa both proceed and the first committer
// aborts the other. Either way exactly one of each opposing pair
// commits per round, and the trace stays consistent.
func TestParallelFig44CircularConflict(t *testing.T) {
	prog := Program{
		Rules: []*match.Rule{
			{
				Name: "pi",
				Conditions: []match.Condition{
					{Class: "q", Tests: []match.AttrTest{{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)}}},
					{Class: "r", Tests: []match.AttrTest{{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)}}},
				},
				Actions: []match.Action{{Kind: match.ActModify, CE: 1, Assigns: []match.AttrAssign{
					{Attr: "hot", Expr: match.ConstExpr{Val: wm.Bool(false)}}}}},
			},
			{
				Name: "pj",
				Conditions: []match.Condition{
					{Class: "r", Tests: []match.AttrTest{{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)}}},
					{Class: "q", Tests: []match.AttrTest{{Attr: "hot", Op: match.OpEq, Const: wm.Bool(true)}}},
				},
				Actions: []match.Action{{Kind: match.ActModify, CE: 1, Assigns: []match.AttrAssign{
					{Attr: "hot", Expr: match.ConstExpr{Val: wm.Bool(false)}}}}},
			},
		},
		WMEs: []InitialWME{
			{Class: "q", Attrs: attrs("hot", true)},
			{Class: "r", Attrs: attrs("hot", true)},
		},
	}
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		e, err := NewParallel(prog, scheme, Options{Np: 2, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		// pi's commit falsifies pj's condition and vice versa: exactly
		// one of them can commit first, and afterwards the other's
		// original instantiation is gone. (The loser's rule can still
		// fire later only if its LHS re-matches, which modify of "hot"
		// to false prevents.)
		if res.Firings != 1 {
			t.Fatalf("%v: firings = %d, want 1\ntrace: %v", scheme, res.Firings, res.Log.Events())
		}
		if err := CheckTrace(prog, res.Log.Commits()); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
	}
}

func TestStaticPipeline(t *testing.T) {
	p := pipelineProgram(5, 3)
	e, err := NewStatic(p, Options{Np: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 15 {
		t.Fatalf("firings = %d, want 15", res.Firings)
	}
	if e.Store().Len() != 0 {
		t.Fatal("final WM not empty")
	}
	if err := CheckTrace(p, res.Log.Commits()); err != nil {
		t.Fatal(err)
	}
}

func TestStaticInterferenceMatrix(t *testing.T) {
	p := tallyProgram(2, 2)
	e, err := NewStatic(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All tick rules write the tally: they pairwise interfere.
	if !e.Interferes("tick0", "tick1") || !e.Interferes("tick0", "tick0") {
		t.Fatal("tally writers must interfere")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 4 {
		t.Fatalf("firings = %d, want 4", res.Firings)
	}
	// Interfering rules cannot batch: every cycle fires exactly one.
	if res.Cycles != 4 {
		t.Fatalf("cycles = %d, want 4 (no batching possible)", res.Cycles)
	}
	if err := CheckTrace(p, res.Log.Commits()); err != nil {
		t.Fatal(err)
	}
}

func TestStaticBatchesIndependentRules(t *testing.T) {
	p := pipelineProgram(6, 2) // advance0 and finish interfere (same class)
	// Two structurally independent rule families: use two disjoint
	// classes so their rules never interfere.
	p2 := Program{
		Rules: []*match.Rule{
			{
				Name:       "a",
				Conditions: []match.Condition{{Class: "x", Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Const: wm.Int(0)}}}},
				Actions: []match.Action{{Kind: match.ActModify, CE: 0,
					Assigns: []match.AttrAssign{{Attr: "v", Expr: match.ConstExpr{Val: wm.Int(1)}}}}},
			},
			{
				Name:       "b",
				Conditions: []match.Condition{{Class: "y", Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Const: wm.Int(0)}}}},
				Actions: []match.Action{{Kind: match.ActModify, CE: 0,
					Assigns: []match.AttrAssign{{Attr: "v", Expr: match.ConstExpr{Val: wm.Int(1)}}}}},
			},
		},
		WMEs: []InitialWME{
			{Class: "x", Attrs: attrs("v", 0)},
			{Class: "y", Attrs: attrs("v", 0)},
		},
	}
	_ = p
	e, err := NewStatic(p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Interferes("a", "b") {
		t.Fatal("disjoint-class rules must not interfere")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings != 2 || res.Cycles != 1 {
		t.Fatalf("firings = %d cycles = %d, want 2 firings in 1 cycle", res.Firings, res.Cycles)
	}
}

// TestStaticHaltSkipsRanMembers: stop and go touch disjoint classes,
// so they share one wave, and LEX seeds it with stop (its tuple is the
// newer). At Np=1 the halt stops dispatch before go starts. At Np=2,
// under every seeded schedule, go either commits before the halt or
// ran and is skipped as "engine stopping" — never committed after it.
func TestStaticHaltSkipsRanMembers(t *testing.T) {
	p := Program{
		Rules: []*match.Rule{
			{Name: "go", Conditions: []match.Condition{{Class: "y"}},
				Actions: []match.Action{{Kind: match.ActModify, CE: 0,
					Assigns: []match.AttrAssign{{Attr: "v", Expr: match.ConstExpr{Val: wm.Int(1)}}}}}},
			{Name: "stop", Conditions: []match.Condition{{Class: "x"}},
				Actions: []match.Action{{Kind: match.ActHalt}}},
		},
		WMEs: []InitialWME{{Class: "y", Attrs: attrs("v", 0)}, {Class: "x", Attrs: attrs("v", 0)}},
	}
	e, err := NewStatic(p, Options{Np: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil || !res.Halted || res.Firings != 1 || res.Skips != 0 || res.Cycles != 1 {
		t.Fatalf("Np=1: %+v, %v; want one halting firing, no skip, one wave", res, err)
	}
	seen := map[int]bool{}
	for seed := int64(0); seed < 16; seed++ {
		ctl := sched.NewDet(sched.NewRandom(seed))
		e, err := NewStatic(p, Options{Np: 2, Sched: ctl})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := ctl.Run(func() { res, err = e.Run() }); err != nil {
			t.Fatal(err)
		}
		commits := res.Log.Commits()
		if err != nil || !res.Halted || commits[len(commits)-1].Rule != "stop" || res.Firings+res.Skips != 2 {
			t.Fatalf("seed %d: %+v, %v; want both members resolved and stop committed last", seed, res, err)
		}
		seen[res.Firings] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("firing counts seen over 16 schedules: %v, want both 1 (go skipped) and 2", seen)
	}
}

func TestCheckTraceRejectsInvalidSequence(t *testing.T) {
	p := counterProgram(2)
	e, err := NewSingle(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	commits := res.Log.Commits()
	if len(commits) != 2 {
		t.Fatalf("want 2 commits, got %d", len(commits))
	}
	// Reversing the sequence makes step 1 fire an instantiation
	// (counter n=1) that is not active initially.
	swapped := []trace.Event{commits[1], commits[0]}
	if err := CheckTrace(p, swapped); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("CheckTrace = %v, want ErrInconsistent", err)
	}
	// Duplicating a commit is also invalid: after n reaches 0 the rule
	// cannot fire again on the same contents.
	dup := append(append([]trace.Event(nil), commits...), commits[1])
	if err := CheckTrace(p, dup); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("CheckTrace dup = %v, want ErrInconsistent", err)
	}
}

// TestHeldJobsJournalPairs runs a program whose commits journal one
// key as both added and removed between two refreshes: shifting a hold
// tuple retracts the old version (unblocking ship's instantiation) and
// asserts the new one (blocking it again) in one commit. The refresh
// must resolve the pair against the conflict set's membership, or a
// blocked ship would be dispatched. Verify fails any commit of one;
// the committer catches most first and aborts them as invalidated, so
// the 2PL runs also require zero aborts — no two firings of this
// program can deadlock under 2PL, and no Rc victims exist there.
func TestHeldJobsJournalPairs(t *testing.T) {
	p := heldJobsProgram()
	check := func(label string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Firings != 12 {
			t.Fatalf("%s: firings = %d, want 12", label, res.Firings)
		}
		if err := CheckTrace(p, res.Log.Commits()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	e, err := NewSingle(p, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	check("single", res, err)
	for _, scheme := range []lock.Scheme{lock.SchemeRcRaWa, lock.Scheme2PL} {
		for run := 0; run < 5; run++ {
			e, err := NewParallel(p, scheme, Options{Np: 4, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			label := fmt.Sprintf("parallel/%v run %d", scheme, run)
			check(label, res, err)
			if scheme == lock.Scheme2PL && res.Aborts != 0 {
				t.Fatalf("%s: %d aborts, want 0 (a blocked ship was dispatched)", label, res.Aborts)
			}
		}
	}
}

// heldJobsProgram ships four jobs, two of them held until their hold
// tuple has been shifted three times and released: shift (6), release
// (2), ship (4) — 12 firings. Every shift re-versions a hold, so ship's
// negated CE is unblocked and blocked again within one commit.
func heldJobsProgram() Program {
	kx := match.AttrTest{Attr: "k", Op: match.OpEq, Var: "x"}
	return Program{
		Rules: []*match.Rule{
			{Name: "ship", Conditions: []match.Condition{
				{Class: "job", Tests: []match.AttrTest{kx, {Attr: "done", Op: match.OpEq, Const: wm.Bool(false)}}},
				{Class: "hold", Negated: true, Tests: []match.AttrTest{kx}},
			}, Actions: []match.Action{{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
				{Attr: "done", Expr: match.ConstExpr{Val: wm.Bool(true)}}}}}},
			{Name: "shift", Conditions: []match.Condition{
				{Class: "hold", Tests: []match.AttrTest{
					{Attr: "n", Op: match.OpEq, Var: "n"}, {Attr: "n", Op: match.OpLt, Const: wm.Int(3)}}},
			}, Actions: []match.Action{{Kind: match.ActModify, CE: 0, Assigns: []match.AttrAssign{
				{Attr: "n", Expr: match.BinExpr{Op: match.ArithAdd,
					L: match.VarExpr{Name: "n"}, R: match.ConstExpr{Val: wm.Int(1)}}}}}}},
			{Name: "release", Conditions: []match.Condition{
				{Class: "hold", Tests: []match.AttrTest{{Attr: "n", Op: match.OpEq, Const: wm.Int(3)}}},
			}, Actions: []match.Action{{Kind: match.ActRemove, CE: 0}}},
		},
		WMEs: []InitialWME{
			{Class: "job", Attrs: attrs("k", 0, "done", false)},
			{Class: "job", Attrs: attrs("k", 1, "done", false)},
			{Class: "job", Attrs: attrs("k", 2, "done", false)},
			{Class: "job", Attrs: attrs("k", 3, "done", false)},
			{Class: "hold", Attrs: attrs("k", 0, "n", 0)},
			{Class: "hold", Attrs: attrs("k", 1, "n", 0)},
		},
	}
}

func TestEngineOptionErrors(t *testing.T) {
	bad := Program{Rules: []*match.Rule{{Name: "bad"}}}
	if _, err := NewSingle(bad, Options{}); err == nil {
		t.Fatal("invalid rule must error")
	}
	if _, err := NewParallel(bad, lock.SchemeRcRaWa, Options{}); err == nil {
		t.Fatal("invalid rule must error (parallel)")
	}
	if _, err := NewStatic(bad, Options{}); err == nil {
		t.Fatal("invalid rule must error (static)")
	}
}

// TestNegativeNpRejected: every engine refuses a negative Np when it is
// built. Each case runs under a time bound and recovers a panic,
// because an unchecked negative Np panics Static's Run (a negative
// semaphore size) and leaves Parallel's committer dispatching nothing
// until it is killed.
func TestNegativeNpRejected(t *testing.T) {
	prog, opts := counterProgram(2), Options{Np: -1}
	builds := map[string]func() (run func(), err error){
		"single": func() (func(), error) { e, err := NewSingle(prog, opts); return func() { e.Run() }, err },
		"static": func() (func(), error) { e, err := NewStatic(prog, opts); return func() { e.Run() }, err },
		"parallel": func() (func(), error) {
			e, err := NewParallel(prog, lock.SchemeRcRaWa, opts)
			return func() { e.Run() }, err
		},
		"session": func() (func(), error) { s, err := NewSession(prog, opts); return func() { s.Run(100) }, err },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			done := make(chan string, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Sprintf("run panicked: %v", r)
					}
				}()
				run, err := build()
				if err != nil {
					done <- ""
					return
				}
				run()
				done <- "built and ran"
			}()
			select {
			case msg := <-done:
				if msg != "" {
					t.Fatalf("Np -1 not rejected: %s", msg)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Np -1 not rejected: run did not return")
			}
		})
	}
}
