package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/lock"
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
		name    string
		prog    engine.Program
		firings int
		emptyWM bool
	}{
		{"pipeline", Pipeline(5, 3), 15, true},
		{"shared-counter", SharedCounter(4, 2), 8, false},
		{"guarded", Guarded(8), 10, true},
		{"join-heavy", JoinHeavy(24, 4), 24, false},
		{"join-misordered", JoinHeavyMisordered(64, 4), 4, false},
	}
	for _, c := range cases {
		e, err := engine.NewSingle(c.prog, engine.Options{Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Firings != c.firings {
			t.Fatalf("%s: firings = %d, want %d", c.name, res.Firings, c.firings)
		}
		if c.emptyWM && e.Store().Len() != 0 {
			t.Fatalf("%s: %d tuples left", c.name, e.Store().Len())
		}
		if err := engine.CheckTrace(c.prog, res.Log.Commits()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestContendedDeckFreeRunning runs the hub-and-negation programs of
// the par-contended bench deck, RandomContended(g, 6, 48, .5, .25) with
// tuples shuffled by a fixed seed, on a free-running Parallel engine
// under both locking schemes. Hub writers, relation-level Rc locks on
// the negated CEs and commit-time Rc victims all race here outside the
// deterministic scheduler, so this is the test that sees what only a
// real interleaving provokes. Every run must commit exactly the
// generator's count with no error, and its commit trace must pass
// CheckTrace.
func TestContendedDeckFreeRunning(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for g := int64(1); g <= 16; g++ {
		prog, want := RandomContended(g, 6, 48, .5, .25)
		rng.Shuffle(len(prog.WMEs), func(i, j int) { prog.WMEs[i], prog.WMEs[j] = prog.WMEs[j], prog.WMEs[i] })
		// One run per program keeps the test near a second (about five
		// under -race); the scheme and Np cycle so that every pair
		// meets four programs.
		scheme := []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa}[g%2]
		np := []int{2, 4}[g/2%2]
		label := fmt.Sprintf("g=%d/%v/np=%d", g, scheme, np)
		e, err := engine.NewParallel(prog, scheme, engine.Options{Np: np})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Firings != want {
			t.Fatalf("%s: firings = %d, want %d", label, res.Firings, want)
		}
		if err := engine.CheckTrace(prog, res.Log.Commits()); err != nil {
			t.Fatalf("%s: %v", label, err)
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

// TestManyRulesFanoutShape checks the E22 invariant: each event is
// owned by exactly one rule, so the program fires once per event and
// drains working memory.
func TestManyRulesFanoutShape(t *testing.T) {
	for _, rules := range []int{8, 48} {
		prog := ManyRulesFanout(rules, 96)
		e, err := engine.NewSingle(prog, engine.Options{Verify: true})
		if err != nil {
			t.Fatalf("R%d: %v", rules, err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("R%d: %v", rules, err)
		}
		if res.Firings != 96 {
			t.Fatalf("R%d: firings = %d, want 96", rules, res.Firings)
		}
		if e.Store().Len() != 0 {
			t.Fatalf("R%d: %d tuples left", rules, e.Store().Len())
		}
		if err := engine.CheckTrace(prog, res.Log.Commits()); err != nil {
			t.Fatalf("R%d: %v", rules, err)
		}
	}
}
