package engine

import (
	"testing"
	"time"

	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/sched"
	"pdps/internal/wm"
)

// runUnderScheduler executes the Parallel engine deterministically: the
// controller virtualises every sleep and lock wait, so the CondDelay /
// RuleDelay relationships hold exactly in virtual time and the run is a
// pure function of the seed — no wall-clock flakiness.
func runUnderScheduler(t *testing.T, prog Program, scheme lock.Scheme, opts Options, seed int64) (Result, error) {
	t.Helper()
	ctl := sched.NewDet(sched.NewRandom(seed))
	ctl.MaxSteps = 1 << 16
	opts.Sched = ctl
	e, err := NewParallel(prog, scheme, opts)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var rerr error
	if serr := ctl.Run(func() { res, rerr = e.Run() }); serr != nil {
		t.Fatalf("schedule did not complete: %v", serr)
	}
	return res, rerr
}

// fig44Program is the circular Rc/Wa dependency of Figure 4.4.
func fig44Program() Program {
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
	return Program{
		Rules: []*match.Rule{mk("pi", "q", "r"), mk("pj", "r", "q")},
		WMEs: []InitialWME{
			{Class: "q", Attrs: attrs("hot", true)},
			{Class: "r", Attrs: attrs("hot", true)},
		},
	}
}

// TestParallelDeadlockPolicies runs the Figure 4.4 scenario under 2PL
// with each deadlock policy; all must converge to exactly one commit
// with a consistent trace.
func TestParallelDeadlockPolicies(t *testing.T) {
	policies := []lock.DeadlockPolicy{
		lock.DeadlockDetect,
		lock.DeadlockWoundWait,
	}
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				prog := fig44Program()
				res, err := runUnderScheduler(t, prog, lock.Scheme2PL, Options{
					Np:       2,
					Deadlock: policy,
					Verify:   true,
					// Equal virtual condition costs: both workers hold their
					// Rc locks at the same instant, forcing the cross-request.
					CondDelay: map[string]time.Duration{
						"pi": 5 * time.Millisecond, "pj": 5 * time.Millisecond,
					},
				}, seed)
				if err != nil {
					t.Fatal(err)
				}
				if res.Firings != 1 {
					t.Fatalf("seed %d: firings = %d, want 1\n%v", seed, res.Firings, res.Log.Events())
				}
				if err := CheckTrace(prog, res.Log.Commits()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestParallelDeadlockPoliciesUnderLoad stresses each policy with the
// shared-counter workload: all must complete all firings consistently.
func TestParallelDeadlockPoliciesUnderLoad(t *testing.T) {
	policies := []lock.DeadlockPolicy{
		lock.DeadlockDetect,
		lock.DeadlockWoundWait,
	}
	for _, policy := range policies {
		t.Run(policy.String(), func(t *testing.T) {
			prog := tallyProgram(5, 3)
			e, err := NewParallel(prog, lock.Scheme2PL, Options{Np: 4, Deadlock: policy})
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
			tally := e.Store().ByClass("tally")
			if !tally[0].Attr("n").Equal(wm.Int(15)) {
				t.Fatalf("tally = %v", tally[0])
			}
			if err := CheckTrace(prog, res.Log.Commits()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
