package engine_test

import (
	"fmt"
	"testing"

	"pdps/internal/engine"
	"pdps/internal/lock"
	"pdps/internal/wm"
)

// relayProgram makes n jobs. Each firing of note leaves its job live
// until consume removes it, so note's refraction entries die through a
// later firing — only a sweep can drop them.
func relayProgram(n int) string {
	return fmt.Sprintf(`
(p spawn (gen ^n <n> ^n > 0) --> (modify 1 ^n (- <n> 1)) (make job ^id <n>))
(p note (job ^id <i>) --> (make seen ^id <i>))
(p consume (job ^id <i>) (seen ^id <i>) --> (remove 1) (remove 2))
(wme gen ^n %d)`, n)
}

// stepBounded steps s until quiescence, checking after every step that
// the refraction memory holds at most twice the most live entries seen
// so far plus 64. It returns the number of firings.
func stepBounded(t *testing.T, s *engine.Session) int {
	t.Helper()
	n := 0
	peak := 0
	for {
		name, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if name == "" {
			return n
		}
		n++
		size, live := s.Refraction()
		peak = max(peak, live)
		if size > 2*peak+64 {
			t.Fatalf("after %d firings: refraction holds %d entries, %d live (peak %d); bound %d",
				n, size, live, peak, 2*peak+64)
		}
	}
}

// TestRefractionBounded: over a 10k-firing session the refraction
// memory stays within its sweep bound, both when matched WMEs die in a
// later firing (relay) and when every firing consumes its own (the
// service's absorb/clear program, fed in batches between runs).
func TestRefractionBounded(t *testing.T) {
	s, err := engine.NewSession(parse(t, relayProgram(3334)), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := stepBounded(t, s); n != 3*3334 {
		t.Fatalf("relay fired %d, want %d", n, 3*3334)
	}

	s, err = engine.NewSession(parse(t, `
(p absorb (event ^tenant t ^seq <s>) --> (remove 1) (make done ^tenant t ^seq <s>))
(p clear  (done  ^tenant t ^seq <s>) --> (remove 1))`), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for batch := 0; batch < 50; batch++ {
		for i := 0; i < 100; i++ {
			s.AssertWME("event", map[string]wm.Value{"tenant": wm.Sym("t"), "seq": wm.Int(int64(batch*100 + i))})
		}
		fired += stepBounded(t, s)
	}
	if fired != 10000 {
		t.Fatalf("absorb/clear fired %d, want 10000", fired)
	}
}

// blockedProgram fires once, is then blocked by a negated CE while its
// WMEs stay live, churns enough dead refraction entries to force a
// sweep, and finally unblocks once. Refraction must still hold once's
// instantiation, so it does not fire a second time.
const blockedProgram = `
(p once (item ^id 1) -(block) --> (make log ^v 1))
(p arm (log ^v 1) -(armed) --> (make armed) (make block) (make churn ^n 70))
(p churn (churn ^n <n> ^n > 0) --> (modify 1 ^n (- <n> 1)) (make junk ^n <n>))
(p note (junk ^n <n>) --> (make seen ^n <n>))
(p eat (junk ^n <n>) (seen ^n <n>) --> (remove 1) (remove 2))
(p unblock (churn ^n 0) (block) -(junk) --> (remove 1) (remove 2))
(wme item ^id 1)`

// TestRefractionExact: on every engine, with Verify, an instantiation
// that fired, was blocked, survived a sweep and was unblocked does not
// fire again, and the commit sequence is one single-thread semantics
// allows.
func TestRefractionExact(t *testing.T) {
	want := map[string]int{"once": 1, "arm": 1, "churn": 70, "note": 70, "eat": 70, "unblock": 1}
	opts := engine.Options{Verify: true, Np: 4}
	runs := map[string]func(engine.Program) (engine.Result, error){
		"single": func(p engine.Program) (engine.Result, error) {
			e, err := engine.NewSingle(p, opts)
			if err != nil {
				return engine.Result{}, err
			}
			return e.Run()
		},
		"static": func(p engine.Program) (engine.Result, error) {
			e, err := engine.NewStatic(p, opts)
			if err != nil {
				return engine.Result{}, err
			}
			return e.Run()
		},
		"parallel-rcrawa": func(p engine.Program) (engine.Result, error) {
			e, err := engine.NewParallel(p, lock.SchemeRcRaWa, opts)
			if err != nil {
				return engine.Result{}, err
			}
			return e.Run()
		},
		"parallel-2pl": func(p engine.Program) (engine.Result, error) {
			e, err := engine.NewParallel(p, lock.Scheme2PL, opts)
			if err != nil {
				return engine.Result{}, err
			}
			return e.Run()
		},
		"session": func(p engine.Program) (engine.Result, error) {
			s, err := engine.NewSession(p, opts)
			if err != nil {
				return engine.Result{}, err
			}
			maxSize := 0
			for {
				name, err := s.Step()
				if err != nil || name == "" {
					if maxSize >= 70 {
						t.Errorf("session: refraction peaked at %d entries; no sweep ran", maxSize)
					}
					return engine.Result{Log: s.Log(), Store: s.Store()}, err
				}
				size, _ := s.Refraction()
				maxSize = max(maxSize, size)
			}
		},
	}
	for name, run := range runs {
		p := parse(t, blockedProgram)
		res, err := run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]int{}
		for _, c := range res.Log.Commits() {
			got[c.Rule]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: commits per rule %v, want %v", name, got, want)
		}
		if n := len(res.Store.ByClass("log")); n != 1 {
			t.Errorf("%s: %d log tuples, want 1", name, n)
		}
		if err := engine.CheckTrace(p, res.Log.Commits()); err != nil {
			t.Errorf("%s: trace check: %v", name, err)
		}
	}
}

// TestSessionStepErrorIsNotRetried pins the refraction of a failed
// firing: a Step whose action errors marks the instantiation fired, and
// it stays marked through a sweep for as long as its WMEs are live.
func TestSessionStepErrorIsNotRetried(t *testing.T) {
	s, err := engine.NewSession(parse(t, `
(p bad (x ^v <v>) --> (make y ^w (+ <v> 1)))
(p churn (churn ^n <n> ^n > 0) --> (modify 1 ^n (- <n> 1)) (make junk ^n <n>))
(p note (junk ^n <n>) --> (make seen ^n <n>))
(p eat (junk ^n <n>) (seen ^n <n>) --> (remove 1) (remove 2))
(wme churn ^n 70)
(wme x ^v a)`), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if name, err := s.Step(); name != "bad" || err == nil {
		t.Fatalf("first Step = %q, %v; want bad with an arithmetic error", name, err)
	}
	for n := 0; ; n++ {
		name, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if name == "" {
			if n != 3*70 {
				t.Fatalf("fired %d after the error, want %d", n, 3*70)
			}
			break
		}
		if name == "bad" {
			t.Fatalf("bad retried after %d firings", n)
		}
	}
	if size, live := s.Refraction(); size >= 70 || live != 1 {
		t.Fatalf("refraction = %d entries, %d live; want a sweep to have run and bad kept", size, live)
	}
}
