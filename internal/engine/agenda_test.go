package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pdps/internal/cr"
	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/match"
	"pdps/internal/wm"
	"pdps/internal/workload"
)

// orderedStrategies are the strategies whose picks the agenda serves:
// every one.
var orderedStrategies = []cr.Strategy{cr.FIFO{}, cr.LEX{}, cr.MEA{}, cr.Priority{}, cr.Specificity{}, cr.NewRandom(1)}

// blockProgram's go instantiations are blocked by a b tuple on their
// key and unblocked when it leaves, re-entering the conflict set under
// the same key.
const blockProgram = `
(p go (a ^x <x>) -(b ^x <x>) --> (make c ^x <x>))
(p clean (c ^x <x>) --> (remove 1))
(wme a ^x 1)
(wme a ^x 2)
(wme a ^x 3)`

// checkPick fails unless the session's next pick is the strategy's
// Select over the listed candidates. The matcher keeps one conflict
// set, so the agenda must hand out that set's very instantiation.
func checkPick(t *testing.T, where string, s *engine.Session, st cr.Strategy) {
	t.Helper()
	got := s.Next()
	var want *match.Instantiation
	if cands := s.ConflictSet(); len(cands) > 0 {
		want = st.Select(cands)
	}
	switch {
	case got == nil || want == nil:
		if got != want {
			t.Fatalf("%s: agenda picked %v, Select %v", where, got, want)
		}
	case got.Key() != want.Key():
		t.Fatalf("%s: agenda picked %s, Select %s", where, got.Key(), want.Key())
	case got != want:
		t.Fatalf("%s: agenda holds a stale instantiation of %s", where, got.Key())
	}
}

// TestAgendaMatchesSelect: for every ordered strategy, over
// every footprint program, a Session's agenda picks what the strategy
// selects from the listed candidates at every step, while tuples are
// asserted and retracted between steps and working memory is replaced
// by a snapshot round trip.
func TestAgendaMatchesSelect(t *testing.T) {
	progs := footprintPrograms(t)
	progs["block"] = parse(t, blockProgram)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, st := range orderedStrategies {
		for pi, name := range names {
			s, err := engine.NewSession(progs[name], engine.Options{Strategy: st})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(pi)))
			for step := 0; step < 80; step++ {
				where := fmt.Sprintf("%s/%s step %d", st.Name(), name, step)
				live := s.Store().All()
				switch r := rng.Intn(16); {
				case r < 3 && len(live) > 0:
					w := live[rng.Intn(len(live))]
					s.AssertWME(w.Class, w.Attrs())
				case r < 5 && len(live) > 0:
					if err := s.Retract(live[rng.Intn(len(live))].ID); err != nil {
						t.Fatal(err)
					}
				case r == 5:
					var b bytes.Buffer
					if err := s.Store().WriteSnapshot(&b); err != nil {
						t.Fatal(err)
					}
					if err := s.LoadSnapshot(&b); err != nil {
						t.Fatal(err)
					}
				}
				checkPick(t, where, s, st)
				if _, err := s.Step(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
	}
}

// TestAgendaFollowsNegation drives blockProgram's go instantiation out
// of the conflict set and back under the same key — across two steps,
// and within one journal drain — checking the pick at each point.
func TestAgendaFollowsNegation(t *testing.T) {
	for _, st := range orderedStrategies {
		where := st.Name()
		s, err := engine.NewSession(parse(t, blockProgram), engine.Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		checkPick(t, where+" start", s, st)
		x := s.Next().Bindings["x"]
		b := s.AssertWME("b", map[string]wm.Value{"x": x})
		checkPick(t, where+" blocked", s, st)
		if err := s.Retract(b.ID); err != nil {
			t.Fatal(err)
		}
		checkPick(t, where+" unblocked", s, st)
		// Blocked and unblocked between two picks: the journal holds
		// the key as removed and as added again.
		b = s.AssertWME("b", map[string]wm.Value{"x": x})
		if err := s.Retract(b.ID); err != nil {
			t.Fatal(err)
		}
		checkPick(t, where+" re-entered", s, st)
		for step := 0; step < 10; step++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
			checkPick(t, fmt.Sprintf("%s step %d", where, step), s, st)
		}
	}
}

// BenchmarkJoinHeavy runs the match-bound JoinHeavy(400,4) program on
// Single, whose agenda picks each firing in O(log n), and on Parallel
// under both locking schemes.
func BenchmarkJoinHeavy(b *testing.B) {
	const keys = 400
	type runner interface{ Run() (engine.Result, error) }
	run := func(b *testing.B, build func(engine.Program) (runner, error)) {
		for i := 0; i < b.N; i++ {
			e, err := build(workload.JoinHeavy(keys, 4))
			if err != nil {
				b.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Firings != keys {
				b.Fatalf("firings = %d, want %d", res.Firings, keys)
			}
		}
		b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds(), "firings/s")
	}
	b.Run("single", func(b *testing.B) {
		run(b, func(p engine.Program) (runner, error) { return engine.NewSingle(p, engine.Options{}) })
	})
	for _, scheme := range []lock.Scheme{lock.Scheme2PL, lock.SchemeRcRaWa} {
		b.Run("parallel/"+scheme.String(), func(b *testing.B) {
			run(b, func(p engine.Program) (runner, error) {
				return engine.NewParallel(p, scheme, engine.Options{})
			})
		})
	}
}

// BenchmarkCheckTrace times the Definition 3.2 checker on the commit
// trace of a JoinHeavy(100,4) Single run; every replay step renders
// each candidate instantiation's WMEs to compare fingerprints.
func BenchmarkCheckTrace(b *testing.B) {
	p := workload.JoinHeavy(100, 4)
	e, err := engine.NewSingle(p, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	commits := res.Log.Commits()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.CheckTrace(p, commits); err != nil {
			b.Fatal(err)
		}
	}
}
