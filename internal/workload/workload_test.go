package workload

import (
	"testing"

	"pdps/internal/engine"
	"pdps/internal/sim"
)

func TestFixturesConstruct(t *testing.T) {
	if got := Fig32System().Initial(); len(got) != 4 {
		t.Fatalf("fig32 initial = %v", got)
	}
	for _, sys := range []interface{ Initial() []string }{
		Fig51System(), Fig52System(), Fig53System(),
	} {
		if len(sys.Initial()) != 4 {
			t.Fatal("section 5 fixtures start with PA = {P1..P4}")
		}
	}
	if Fig54Np() != 3 {
		t.Fatal("fig 5.4 uses three processors")
	}
}

func TestRandomAbstractTerminates(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		sys := RandomAbstract(seed, 10, 2, 1, 5)
		res, err := sim.Run(sys, sim.Config{Np: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("seed %d: generator produced a non-terminating system", seed)
		}
		if !sys.IsValidSequence(res.Sigma()) {
			t.Fatalf("seed %d: invalid sigma", seed)
		}
	}
}

func TestConflictChainShape(t *testing.T) {
	sys := ConflictChain(6, 2, 1)
	p1, _ := sys.Production("P1")
	if len(p1.Del) != 2 || p1.Del[0] != "P2" || p1.Del[1] != "P3" {
		t.Fatalf("P1.Del = %v", p1.Del)
	}
	last, _ := sys.Production("P6")
	if len(last.Del) != 0 {
		t.Fatalf("last production deletes %v", last.Del)
	}
	if len(sys.Initial()) != 6 {
		t.Fatal("all productions start active")
	}
}

func TestConcreteWorkloadsRunToCompletion(t *testing.T) {
	cases := []struct {
		name     string
		prog     engine.Program
		matchers []string // nil: the default matcher only
		firings  int
		emptyWM  bool
	}{
		{"pipeline", Pipeline(5, 3), nil, 15, true},
		{"shared-counter", SharedCounter(4, 2), nil, 8, false},
		{"guarded", Guarded(8), nil, 10, true},
		{"join-heavy", JoinHeavy(24, 4), []string{"rete", "rete-linear", "treat", "naive"}, 24, false},
		{"join-misordered", JoinHeavyMisordered(64, 4), []string{"rete", "rete-src"}, 4, false},
	}
	for _, c := range cases {
		matchers := c.matchers
		if matchers == nil {
			matchers = []string{""}
		}
		for _, m := range matchers {
			label := c.name + "/" + m
			e, err := engine.NewSingle(c.prog, engine.Options{Matcher: m, Verify: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Firings != c.firings {
				t.Fatalf("%s: firings = %d, want %d", label, res.Firings, c.firings)
			}
			if c.emptyWM && e.Store().Len() != 0 {
				t.Fatalf("%s: %d tuples left", label, e.Store().Len())
			}
			if err := engine.CheckTrace(c.prog, res.Log.Commits()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

func TestRandomProgramDrainsWM(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		prog := RandomProgram(seed, 4, 20)
		e, err := engine.NewSingle(prog, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.LimitHit {
			t.Fatalf("seed %d: random program did not terminate", seed)
		}
		if e.Store().Len() != 0 {
			t.Fatalf("seed %d: %d tuples left", seed, e.Store().Len())
		}
	}
}

// TestManyRulesFanoutShape checks the E22 invariant on every matcher
// variant: each event is owned by exactly one rule, so the program
// fires once per event and drains working memory — identically under
// the discrimination network ("rete") and the linear alpha baseline
// ("rete-linear").
func TestManyRulesFanoutShape(t *testing.T) {
	for _, matcher := range []string{"rete", "rete-linear", "treat"} {
		for _, rules := range []int{8, 48} {
			prog := ManyRulesFanout(rules, 96)
			e, err := engine.NewSingle(prog, engine.Options{Matcher: matcher, Verify: true})
			if err != nil {
				t.Fatalf("%s/R%d: %v", matcher, rules, err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s/R%d: %v", matcher, rules, err)
			}
			if res.Firings != 96 {
				t.Fatalf("%s/R%d: firings = %d, want 96", matcher, rules, res.Firings)
			}
			if e.Store().Len() != 0 {
				t.Fatalf("%s/R%d: %d tuples left", matcher, rules, e.Store().Len())
			}
			if err := engine.CheckTrace(prog, res.Log.Commits()); err != nil {
				t.Fatalf("%s/R%d: %v", matcher, rules, err)
			}
		}
	}
}
