package engine

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"pdps/internal/match"
	"pdps/internal/wm"
)

// churnProgram fires each job once, removing it, and makes a flag for
// a job no hold tuple blocks. Asserting jobs and holds and retracting
// them between steps makes instantiations leave the conflict set
// without firing, through a retraction and through a negated CE.
func churnProgram() Program {
	job := match.Condition{Class: "job", Tests: []match.AttrTest{{Attr: "id", Op: match.OpEq, Var: "i"}}}
	return Program{Rules: []*match.Rule{
		{Name: "run", Conditions: []match.Condition{job},
			Actions: []match.Action{{Kind: match.ActRemove, CE: 0}}},
		{Name: "flag", Priority: 1, Conditions: []match.Condition{job,
			{Class: "hold", Negated: true, Tests: []match.AttrTest{{Attr: "id", Op: match.OpEq, Var: "i"}}}},
			Actions: []match.Action{{Kind: match.ActMake, Class: "flag",
				Assigns: []match.AttrAssign{{Attr: "id", Expr: match.VarExpr{Name: "i"}}}}}},
	}}
}

// TestAgendaBounded: over a 10k-step churn in which most instantiations
// leave the conflict set unfired, the agenda never holds more than
// 2·|conflict set|+64 entries.
func TestAgendaBounded(t *testing.T) {
	s, err := NewSession(churnProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var jobs, holds []*wm.WME
	retract := func(ws []*wm.WME) []*wm.WME {
		i := rng.Intn(len(ws))
		_ = s.Retract(ws[i].ID) // a fired job is already gone
		return append(ws[:i], ws[i+1:]...)
	}
	for step := 0; step < 10000; step++ {
		id := rng.Intn(50)
		jobs = append(jobs, s.AssertWME("job", attrs("id", id)))
		if rng.Intn(2) == 0 {
			holds = append(holds, s.AssertWME("hold", attrs("id", id)))
		}
		for len(jobs) > 20 {
			jobs = retract(jobs)
		}
		for len(holds) > 10 {
			holds = retract(holds)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		n, members := len(s.rt.agenda.heap), s.rt.matcher.ConflictSet().Len()
		if n > 2*members+64 {
			t.Fatalf("step %d: agenda holds %d entries over %d members", step, n, members)
		}
	}
}

// TestAgendaAllocs: in steady state a pick allocates nothing. Each
// firing of the pipeline replaces one instantiation by one new one,
// and the new one's agenda entry is the recycled entry of the old.
func TestAgendaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates; allocation ceilings run without -race")
	}
	s, err := NewSession(lowConflictProgram(1, 50, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if name, err := s.Step(); err != nil || name == "" {
			t.Fatalf("step: %q, %v", name, err)
		}
	}
	for i := 0; i < 500; i++ {
		step()
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	const steps = 500
	var before, after goruntime.MemStats
	var allocs uint64
	for i := 0; i < steps; i++ {
		goruntime.ReadMemStats(&before)
		s.rt.next()
		goruntime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		step()
	}
	if allocs > steps/50 {
		t.Errorf("%d allocations over %d picks, want at most %d: agenda entries are recycled", allocs, steps, steps/50)
	}
	if n := testing.AllocsPerRun(20, func() { s.rt.next() }); n != 0 {
		t.Errorf("%.1f allocations per pick with nothing journaled, want 0", n)
	}
}
