package engine

import (
	"fmt"
	"testing"

	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/wm"
)

// TestDedupeResourcesInPlace pins the allocation-free contract: the
// output aliases the input's backing array, is sorted, and keeps one
// copy of each resource.
func TestDedupeResourcesInPlace(t *testing.T) {
	rs := []lock.Resource{
		{Class: "b", ID: 2}, {Class: "a", ID: 1}, {Class: "b", ID: 2},
		{Class: "a", ID: 1}, {Class: "a", ID: 3}, {Class: "a", ID: 1},
	}
	out := dedupeResources(rs)
	want := []lock.Resource{{Class: "a", ID: 1}, {Class: "a", ID: 3}, {Class: "b", ID: 2}}
	if len(out) != len(want) {
		t.Fatalf("dedupe = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("dedupe = %v, want %v", out, want)
		}
	}
	if &out[0] != &rs[0] {
		t.Fatal("dedupeResources must compact in place, not allocate")
	}
}

// planInstantiation matches a rule with two positive CEs, one negated
// CE, a remove and a make: every kind of entry the lock plans hold.
func planInstantiation(t *testing.T) *match.Instantiation {
	t.Helper()
	r := &match.Rule{
		Name: "plan",
		Conditions: []match.Condition{
			{Class: "b", Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "k"}}},
			{Class: "a", Tests: []match.AttrTest{
				{Attr: "k", Op: match.OpEq, Var: "k"},
				{Attr: "n", Op: match.OpGt, Const: wm.Int(0)},
			}},
			{Class: "c", Negated: true, Tests: []match.AttrTest{{Attr: "k", Op: match.OpEq, Var: "k"}}},
		},
		Actions: []match.Action{
			{Kind: match.ActRemove, CE: 1},
			{Kind: match.ActMake, Class: "d", Assigns: []match.AttrAssign{{Attr: "k", Expr: match.VarExpr{Name: "k"}}}},
		},
	}
	s := wm.NewStore()
	s.Insert("a", attrs("k", 1, "n", 1))
	s.Insert("b", attrs("k", 1))
	ins := match.MatchRule(s, r)
	if len(ins) != 1 {
		t.Fatalf("instantiations = %d, want 1", len(ins))
	}
	return ins[0]
}

// TestLockPlans pins both plans' resources, modes and acquisition
// order: tuples and relations sorted by class then ID, one entry per
// resource.
func TestLockPlans(t *testing.T) {
	in := planInstantiation(t)
	rc := fmt.Sprint(rcResources(nil, in))
	if want := "[a[1] b[2] c[*]]"; rc != want {
		t.Errorf("Rc plan = %s, want %s", rc, want)
	}
	var rhs []string
	for _, l := range rhsLocks(nil, in) {
		rhs = append(rhs, l.mode.String()+" "+l.res.String())
	}
	if got, want := fmt.Sprint(rhs), "[Wa a[1] Wa d[*]]"; got != want {
		t.Errorf("Ra/Wa plan = %s, want %s", got, want)
	}
}

// TestLockPlanAllocs holds the two lock plans of one instantiation to
// no allocation once their buffers have grown: the plans are built
// from the footprint in stack buffers and copied into the buffers a
// flight keeps across reuse. The sort.Slice and mode-map plans they
// replace took 10 (6 and 4), and cloning the plans out took 2.
func TestLockPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	in := planInstantiation(t)
	var rc []lock.Resource
	var rhs []rhsLock
	n := testing.AllocsPerRun(100, func() {
		rc = rcResources(rc, in)
		rhs = rhsLocks(rhs, in)
	})
	if n > 0 {
		t.Fatalf("lock plans allocate %v times, want 0", n)
	}
}

// TestParallelKeepsPlansPerFlight: lock-plan buffers come from the
// committer's free list at dispatch and go back when the flight lands,
// so a finished run keeps one pair per flight at the peak (Np here: a
// low-conflict program never aborts), and the recycled agenda entries
// keep neither plans nor an instantiation alive.
func TestParallelKeepsPlansPerFlight(t *testing.T) {
	const np = 3
	e, err := NewParallel(lowConflictProgram(4, 8, 6), lock.SchemeRcRaWa, Options{Np: np})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil || res.Firings != 4*8*6 || res.Aborts != 0 {
		t.Fatalf("fired %d with %d aborts, err %v; want %d, none", res.Firings, res.Aborts, err, 4*8*6)
	}
	if n := len(e.plans); n == 0 || n > np {
		t.Fatalf("%d lock-plan pairs kept, want 1..%d", n, np)
	}
	if len(e.inflight) != 0 {
		t.Fatalf("%d flights left", len(e.inflight))
	}
	for _, f := range e.agenda.free {
		if f.plans != nil || f.member != nil || f.In != nil {
			t.Fatal("a recycled agenda entry keeps lock plans or an instantiation")
		}
	}
}
