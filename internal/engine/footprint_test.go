package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/wm"
	"pdps/internal/workload"
)

// The two witness programs of the static approach's tuple guard. In
// each, the rules are non-interfering at the level the guard once
// checked, one writes the tuple the other only reads, and a batch that
// commits the writer first commits the reader on a retired version.
var staticWitnesses = map[string]string{
	// modify re-tags the tuple bread read, though on another attribute.
	"read-modify": `
(p bread (c ^x 1) --> (make log ^v 1))
(p amod (c ^y 0) --> (modify 1 ^y 1))
(wme c ^x 1 ^y 0)`,
	// A CE with no attribute tests reads its tuple's existence.
	"exists-remove": `
(p e (c) --> (make log ^v 1))
(p r (c ^y 0) --> (remove 1))
(wme c ^y 0)`,
}

// TestStaticWitnesses runs both witness programs on Static, with and
// without the per-commit Verify check: every run must succeed and its
// commit trace must replay on ES_single.
func TestStaticWitnesses(t *testing.T) {
	for name, src := range staticWitnesses {
		for _, verify := range []bool{false, true} {
			p := parse(t, src)
			e, err := engine.NewStatic(p, engine.Options{Np: 2, Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Errorf("%s verify=%v: %v", name, verify, err)
				continue
			}
			if err := engine.CheckTrace(p, res.Log.Commits()); err != nil {
				t.Errorf("%s verify=%v: %v", name, verify, err)
			}
		}
	}
}

// footprintPrograms are the programs whose conflict sets the footprint
// properties draw pairs from: every testdata program, the workloads
// the parallel engines are benchmarked on, a few random programs and
// the two static witnesses.
func footprintPrograms(t *testing.T) map[string]engine.Program {
	t.Helper()
	progs := make(map[string]engine.Program)
	for _, glob := range []string{"../../testdata/*.ops", "../../testdata/examples/*.ops"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs under %s (%v)", glob, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			progs[filepath.Base(f)] = parse(t, string(src))
		}
	}
	progs["independent"] = workload.Independent(8, 3)
	progs["join-heavy"] = workload.JoinHeavy(8, 3)
	for seed := int64(1); seed <= 4; seed++ {
		progs[fmt.Sprintf("contended-%d", seed)], _ = workload.RandomContended(seed, 6, 8, 0.5, 0.25)
		progs[fmt.Sprintf("random-%d", seed)] = workload.RandomProgram(seed, 4, 6)
	}
	for name, src := range staticWitnesses {
		progs["witness-"+name] = parse(t, src)
	}
	return progs
}

// TestFootprintProperties checks the two approaches against each other
// on every pair of instantiations in the conflict set before each step
// of a serial Session run (the recognize–act step Single runs):
//
//   - Static implies dynamic. When Section 4.1 calls two rules
//     non-interfering, every lock pair between their plans that 2PL
//     refuses is on one tuple both firings touch, never on a relation.
//   - Theorem 1. When Static's guard admits the pair, firing either
//     first leaves the other active under the same key, and both
//     orders end with the same multiset of WME contents.
func TestFootprintProperties(t *testing.T) {
	for name, p := range footprintPrograms(t) {
		t.Run(name, func(t *testing.T) { checkFootprintPairs(t, p) })
	}
}

// checkFootprintPairs steps a Session over p, for at most 200
// firings, and checks both properties on every pair of the conflict set
// before each step.
func checkFootprintPairs(t *testing.T, p engine.Program) {
	st, err := engine.NewStatic(p, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(p, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, free, admitted := 0, 0, 0
	for step := 0; step < 200; step++ {
		cs := s.ConflictSet()
		for i, a := range cs {
			for _, b := range cs[i+1:] {
				pairs++
				if !st.Interferes(a.Rule.Name, b.Rule.Name) {
					free++
					checkStaticImpliesDynamic(t, a, b)
				}
				if st.Admits(a, b) {
					admitted++
					checkTheorem1(t, s.Store(), a, b)
				}
			}
		}
		fired, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if fired == "" {
			break
		}
	}
	t.Logf("%d pairs, %d non-interfering, %d admitted", pairs, free, admitted)
}

// checkStaticImpliesDynamic fails on any 2PL-incompatible lock pair
// between the plans of a and b that is not on one tuple.
func checkStaticImpliesDynamic(t *testing.T, a, b *match.Instantiation) {
	t.Helper()
	pb := engine.LockPlan(b)
	for _, la := range engine.LockPlan(a) {
		for _, lb := range pb {
			if !overlap(la.Res, lb.Res) || lock.Compatible(lock.Scheme2PL, la.Mode, lb.Mode) {
				continue
			}
			if la.Res != lb.Res || la.Res.ID == lock.RelationLevel {
				t.Errorf("non-interfering rules conflict under 2PL on %v %v / %v %v:\n  %v\n  %v",
					la.Mode, la.Res, lb.Mode, lb.Res, a, b)
			}
		}
	}
}

// overlap reports whether two lock resources cover common data: the
// same resource, or a relation and a tuple of it.
func overlap(a, b lock.Resource) bool {
	return a.Class == b.Class && (a.ID == b.ID || a.ID == lock.RelationLevel || b.ID == lock.RelationLevel)
}

// checkTheorem1 fires a admitted pair in both orders on copies of the
// store and compares the outcomes.
func checkTheorem1(t *testing.T, store *wm.Store, a, b *match.Instantiation) {
	t.Helper()
	ab, okB := fireBoth(t, store, a, b)
	ba, okA := fireBoth(t, store, b, a)
	if !okB || !okA {
		t.Errorf("admitted pair retires one another (%v after %v: %v, %v after %v: %v):\n  %v\n  %v",
			b.Rule.Name, a.Rule.Name, okB, a.Rule.Name, b.Rule.Name, okA, a, b)
		return
	}
	if !slices.Equal(ab, ba) {
		t.Errorf("admitted pair is order-dependent:\n  %v\n  %v\n  a;b: %v\n  b;a: %v", a, b, ab, ba)
	}
}

// fireBoth fires first and then second on a copy of store. It reports
// whether second was still active, under its key, once first had
// committed, and returns the final contents, sorted.
func fireBoth(t *testing.T, store *wm.Store, first, second *match.Instantiation) ([]string, bool) {
	t.Helper()
	c := store.Clone()
	fire := func(in *match.Instantiation) {
		tx := c.Begin()
		if _, err := match.ExecuteActions(in, tx); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	fire(first)
	active := slices.ContainsFunc(match.MatchRule(c, second.Rule), func(in *match.Instantiation) bool {
		return in.Key() == second.Key()
	})
	if !active {
		return nil, false
	}
	fire(second)
	var out []string
	for _, w := range c.All() {
		out = append(out, w.String())
	}
	slices.Sort(out)
	return out, true
}
